(* Equivalence tests for the hot-path rewrites: each optimized structure
   is driven against the simple implementation it replaced (or its
   documented policy) on random traces. The optimizations must be
   invisible — same victims, same spans, same drain order, same memory. *)

let cfg = Samhita.Config.default
let layout = Samhita.Layout.of_config cfg
let lb = layout.Samhita.Layout.line_bytes
let pages = cfg.Samhita.Config.pages_per_line

(* ------------------------------------------------------------------ *)
(* Word-wise Diff vs. the retained scalar reference                    *)

let spans_of_reference (d : Samhita.Diff_reference.t) =
  List.map
    (fun (s : Samhita.Diff_reference.span) ->
       (s.Samhita.Diff_reference.offset, s.Samhita.Diff_reference.data))
    d.Samhita.Diff_reference.spans

let spans_of_diff d =
  List.map
    (fun (s : Samhita.Diff.span) ->
       (s.Samhita.Diff.offset, s.Samhita.Diff.data))
    (Samhita.Diff.spans d)

(* Random write patterns: a mix of isolated bytes, short runs and
   word-straddling runs, plus writes of the twin's own value (which must
   not produce a span — the scan is byte-exact, not write-exact). *)
let gen_writes =
  QCheck.Gen.(
    list_size (int_range 0 48)
      (triple (int_bound (lb - 1)) (int_range 1 24) (int_bound 255)))

let prop_diff_matches_reference =
  QCheck.Test.make ~name:"word-wise Diff.make == scalar reference" ~count:300
    (QCheck.make
       QCheck.Gen.(pair gen_writes (int_bound ((1 lsl pages) - 1))))
    (fun (writes, dirty_pages) ->
       let twin = Bytes.init lb (fun i -> Char.chr (i * 7 land 0xFF)) in
       let current = Bytes.copy twin in
       List.iter
         (fun (off, len, v) ->
            let len = min len (lb - off) in
            Bytes.fill current off len (Char.chr v))
         writes;
       let d =
         Samhita.Diff.make layout ~line:3 ~twin ~current ~dirty_pages
       in
       let r =
         Samhita.Diff_reference.make layout ~line:3 ~twin ~current
           ~dirty_pages
       in
       spans_of_diff d = spans_of_reference r
       && Samhita.Diff.span_count d = Samhita.Diff_reference.span_count r
       && Samhita.Diff.payload_bytes d
          = Samhita.Diff_reference.payload_bytes r
       && Samhita.Diff.wire_bytes d = Samhita.Diff_reference.wire_bytes r
       && Samhita.Diff.is_empty d = Samhita.Diff_reference.is_empty r)

(* ------------------------------------------------------------------ *)
(* LRU-chain victim choice vs. the scan it replaced                    *)

(* Reference: the retired O(capacity) scan. Entries are (line, tick,
   dirty); ticks are unique, so the scan's strict comparisons make the
   choice independent of iteration order — exactly what the intrusive
   chains must reproduce. *)
module Scan_model = struct
  type e = { line : int; mutable tick : int; mutable dirty : bool }

  type t = {
    mutable entries : e list;
    mutable clock : int;
    dirty_first : bool;
    cap : int;
  }

  let create ~dirty_first ~cap = { entries = []; clock = 0; dirty_first; cap }

  let find t line = List.find_opt (fun e -> e.line = line) t.entries

  let touch t e =
    t.clock <- t.clock + 1;
    e.tick <- t.clock

  let choose_victim t ~allow_dirty =
    List.fold_left
      (fun best e ->
         if (not allow_dirty) && e.dirty then best
         else
           match best with
           | None -> Some e
           | Some b ->
             if t.dirty_first && e.dirty <> b.dirty then
               if e.dirty then Some e else Some b
             else if e.tick < b.tick then Some e
             else Some b)
      None t.entries

  (* Returns the victim's line, if an eviction happened. *)
  let insert t line =
    match find t line with
    | Some e ->
      touch t e;
      None
    | None ->
      let victim =
        if List.length t.entries >= t.cap then begin
          match choose_victim t ~allow_dirty:true with
          | Some v ->
            t.entries <- List.filter (fun e -> e.line <> v.line) t.entries;
            Some v.line
          | None -> None
        end
        else None
      in
      let e = { line; tick = 0; dirty = false } in
      touch t e;
      t.entries <- e :: t.entries;
      victim
end

type trace_op = Insert of int | Find of int | Mark of int | Clean of int | Drop of int

let trace_gen rng =
  let line = QCheck.Gen.int_range 0 11 rng in
  match QCheck.Gen.int_range 0 9 rng with
  | 0 | 1 | 2 | 3 -> Insert line
  | 4 | 5 -> Find line
  | 6 | 7 -> Mark line
  | 8 -> Clean line
  | _ -> Drop line

let trace_print = function
  | Insert l -> Printf.sprintf "I%d" l
  | Find l -> Printf.sprintf "F%d" l
  | Mark l -> Printf.sprintf "M%d" l
  | Clean l -> Printf.sprintf "C%d" l
  | Drop l -> Printf.sprintf "D%d" l

let arb_trace =
  QCheck.make
    ~print:(fun (ops, df) ->
      Printf.sprintf "dirty_first=%b [%s]" df
        (String.concat "; " (List.map trace_print ops)))
    QCheck.Gen.(pair (list_size (int_range 1 80) trace_gen) bool)

let prop_victims_match_scan =
  QCheck.Test.make
    ~name:"LRU-chain eviction sequence == scan-based reference" ~count:500
    arb_trace
    (fun (ops, dirty_first) ->
       let ccfg =
         { cfg with
           Samhita.Config.cache_lines = 4;
           evict_dirty_first = dirty_first }
       in
       let cache = Samhita.Cache.create ccfg (Samhita.Layout.of_config ccfg) in
       let model = Scan_model.create ~dirty_first ~cap:4 in
       let data () = Bytes.make lb '\000' in
       List.for_all
         (fun op ->
            match op with
            | Insert l ->
              let evicted = ref None in
              (if Samhita.Cache.peek cache l = None then
                 ignore
                   (Samhita.Cache.insert cache ~line:l ~data:(data ())
                      ~version:0
                      ~evict:(fun v ->
                        evicted := Some v.Samhita.Cache.line)
                    : Samhita.Cache.entry)
               else ignore (Samhita.Cache.find cache l));
              let model_victim = Scan_model.insert model l in
              !evicted = model_victim
            | Find l ->
              ignore (Samhita.Cache.find cache l);
              (match Scan_model.find model l with
               | Some e -> Scan_model.touch model e
               | None -> ());
              true
            | Mark l ->
              (match Samhita.Cache.peek cache l with
               | Some e ->
                 Samhita.Cache.mark_written cache e ~offset:0 ~len:8
               | None -> ());
              (match Scan_model.find model l with
               | Some e -> e.Scan_model.dirty <- true
               | None -> ());
              true
            | Clean l ->
              (match Samhita.Cache.peek cache l with
               | Some e -> Samhita.Cache.clean cache e ~version:0
               | None -> ());
              (match Scan_model.find model l with
               | Some e -> e.Scan_model.dirty <- false
               | None -> ());
              true
            | Drop l ->
              Samhita.Cache.invalidate cache l;
              model.Scan_model.entries <-
                List.filter
                  (fun (e : Scan_model.e) -> e.Scan_model.line <> l)
                  model.Scan_model.entries;
              true)
         ops)

(* ------------------------------------------------------------------ *)
(* Recycled line buffers vs. fresh-buffer copies                       *)

(* The cache recycles line buffers through a spare stack; the reference
   keeps every resident line's contents and twin in buffers of its own.
   A buffer handed to two owners at once (entry data, twin, spare) would
   show as a physically shared buffer or as contents that drift from the
   reference. Fetch, prefetch and flush go through a plain home store. *)
type buf_op =
  | B_insert of int
  | B_write of int * int * int  (* line, offset, byte *)
  | B_flush of int
  | B_drop of int
  | B_try of int
  | B_prefetch of int * bool  (* line, invalidated in flight *)

let buf_op_print = function
  | B_insert l -> Printf.sprintf "I%d" l
  | B_write (l, o, v) -> Printf.sprintf "W%d@%d=%d" l o v
  | B_flush l -> Printf.sprintf "F%d" l
  | B_drop l -> Printf.sprintf "D%d" l
  | B_try l -> Printf.sprintf "T%d" l
  | B_prefetch (l, stale) -> Printf.sprintf "P%d%s" l (if stale then "!" else "")

let buf_op_gen =
  QCheck.Gen.(
    int_range 0 5 >>= fun l ->
    frequency
      [ (3, return (B_insert l));
        (4, map2 (fun o v -> B_write (l, o, v)) (int_bound (lb - 1))
              (int_bound 255));
        (2, return (B_flush l));
        (1, return (B_drop l));
        (2, return (B_try l));
        (1, map (fun st -> B_prefetch (l, st)) bool) ])

let arb_buf_trace =
  QCheck.make
    ~print:(fun (cap, ops) ->
      Printf.sprintf "cap=%d [%s]" cap
        (String.concat "; " (List.map buf_op_print ops)))
    QCheck.Gen.(pair (int_range 2 4) (list_size (int_range 1 60) buf_op_gen))

let prop_recycled_buffers_unshared =
  QCheck.Test.make ~name:"recycled line buffers are never shared" ~count:300
    arb_buf_trace
    (fun (cap, ops) ->
       let ccfg = { cfg with Samhita.Config.cache_lines = cap } in
       let cache = Samhita.Cache.create ccfg layout in
       let home = Hashtbl.create 8 in
       let home_line l =
         match Hashtbl.find_opt home l with
         | Some b -> b
         | None ->
           let b = Bytes.init lb (fun i -> Char.chr ((i * (l + 3)) land 255)) in
           Hashtbl.replace home l b;
           b
       in
       (* line -> (contents, twin) in fresh buffers *)
       let model = Hashtbl.create 8 in
       let fetch l =
         let into = Samhita.Cache.buffer cache in
         Bytes.blit (home_line l) 0 into 0 lb;
         into
       in
       let flush (e : Samhita.Cache.entry) =
         (match e.Samhita.Cache.twin with
          | Some twin ->
            Samhita.Diff.apply
              (Samhita.Diff.make layout ~line:e.Samhita.Cache.line ~twin
                 ~current:e.Samhita.Cache.data
                 ~dirty_pages:e.Samhita.Cache.dirty_pages)
              (home_line e.Samhita.Cache.line)
          | None -> ());
         Samhita.Cache.clean cache e ~version:0;
         match Hashtbl.find_opt model e.Samhita.Cache.line with
         | Some (d, _) -> Hashtbl.replace model e.Samhita.Cache.line (d, None)
         | None -> ()
       in
       let step = function
         | B_insert l ->
           if Samhita.Cache.peek cache l = None then begin
             ignore
               (Samhita.Cache.insert cache ~line:l ~data:(fetch l) ~version:0
                  ~evict:flush
                : Samhita.Cache.entry);
             Hashtbl.replace model l (Bytes.copy (home_line l), None)
           end
         | B_write (l, off, v) -> (
             match Samhita.Cache.peek cache l with
             | Some e ->
               Samhita.Cache.mark_written cache e ~offset:off ~len:1;
               Bytes.set e.Samhita.Cache.data off (Char.chr v);
               let d, twin = Hashtbl.find model l in
               let twin =
                 match twin with Some _ -> twin | None -> Some (Bytes.copy d)
               in
               Bytes.set d off (Char.chr v);
               Hashtbl.replace model l (d, twin)
             | None -> ())
         | B_flush l -> (
             match Samhita.Cache.peek cache l with
             | Some e -> flush e
             | None -> ())
         | B_drop l ->
           (* Invalidation without a flush discards unflushed writes. *)
           Samhita.Cache.invalidate cache l;
           Hashtbl.remove model l
         | B_try l ->
           if Samhita.Cache.try_install cache ~line:l ~data:(fetch l)
               ~version:0
           then Hashtbl.replace model l (Bytes.copy (home_line l), None)
         | B_prefetch (l, stale) ->
           if Samhita.Cache.pending_start cache l then begin
             if stale then Samhita.Cache.invalidate cache l;
             let resident = Samhita.Cache.peek cache l <> None in
             Samhita.Cache.pending_complete cache l ~data:(fetch l)
               ~version:0;
             if stale then Hashtbl.remove model l
             else if (not resident) && Samhita.Cache.peek cache l <> None
             then Hashtbl.replace model l (Bytes.copy (home_line l), None)
           end
       in
       let consistent () =
         let entries = Samhita.Cache.entries cache in
         (* Victims left silently (capacity eviction, try_install): drop
            them from the reference. *)
         let resident = List.map (fun e -> e.Samhita.Cache.line) entries in
         Hashtbl.filter_map_inplace
           (fun l v -> if List.mem l resident then Some v else None)
           model;
         let bufs =
           List.concat_map
             (fun (e : Samhita.Cache.entry) ->
                e.Samhita.Cache.data
                :: Option.to_list e.Samhita.Cache.twin)
             entries
           @ Samhita.Cache.spares cache
         in
         let rec distinct = function
           | [] -> true
           | b :: rest -> List.for_all (fun b' -> b != b') rest && distinct rest
         in
         distinct bufs
         && List.for_all (fun b -> Bytes.length b = lb) bufs
         && List.for_all
           (fun (e : Samhita.Cache.entry) ->
              match Hashtbl.find_opt model e.Samhita.Cache.line with
              | None -> false
              | Some (d, twin) ->
                Bytes.equal d e.Samhita.Cache.data
                && (match (twin, e.Samhita.Cache.twin) with
                    | None, None -> true
                    | Some a, Some b -> Bytes.equal a b
                    | _ -> false))
           entries
       in
       List.for_all
         (fun op ->
            step op;
            consistent ())
         ops)

(* ------------------------------------------------------------------ *)
(* Unboxed heap vs. a boxed sorted-list reference                      *)

module List_heap = struct
  type 'a t = {
    mutable entries : (int * int * int * 'a) list;  (* time, prio, seq *)
    mutable next_seq : int;
    tie_break : (time:int -> seq:int -> int) option;
  }

  let create ?tie_break () = { entries = []; next_seq = 0; tie_break }

  let push t ~time payload =
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    let prio =
      match t.tie_break with Some f -> f ~time ~seq | None -> seq
    in
    t.entries <- (time, prio, seq, payload) :: t.entries

  let pop t =
    match
      List.sort
        (fun (t1, p1, s1, _) (t2, p2, s2, _) ->
           match Int.compare t1 t2 with
           | 0 -> (
               match Int.compare p1 p2 with
               | 0 -> Int.compare s1 s2
               | c -> c)
           | c -> c)
        t.entries
    with
    | [] -> None
    | ((time, _, _, payload) as min) :: _ ->
      t.entries <- List.filter (fun e -> e != min) t.entries;
      Some (time, payload)
end

type heap_op = Push of int | Pop

let arb_heap_trace =
  QCheck.make
    ~print:(fun (ops, tb) ->
      Printf.sprintf "tie_break=%b [%s]" tb
        (String.concat "; "
           (List.map
              (function Push t -> Printf.sprintf "push %d" t | Pop -> "pop")
              ops)))
    QCheck.Gen.(
      pair
        (list_size (int_range 1 120)
           (int_range 0 3 >>= fun k ->
            if k = 0 then return Pop
            else map (fun t -> Push t) (int_bound 50)))
        bool)

let prop_heap_matches_boxed =
  QCheck.Test.make
    ~name:"unboxed heap drain order == boxed reference (with tie-break)"
    ~count:500 arb_heap_trace
    (fun (ops, use_tb) ->
       (* Any pure function works as a tie-break; this one permutes
          same-instant order while colliding often enough to exercise the
          seq fallback. *)
       let tb = if use_tb then Some (fun ~time ~seq -> (time + seq) mod 3) else None in
       let h = Desim.Heap.create ?tie_break:tb ~initial_capacity:4 () in
       let r = List_heap.create ?tie_break:tb () in
       let n = ref 0 in
       List.for_all
         (fun op ->
            match op with
            | Push time ->
              incr n;
              Desim.Heap.push h ~time !n;
              List_heap.push r ~time !n;
              Desim.Heap.length h = List.length r.List_heap.entries
            | Pop -> Desim.Heap.pop h = List_heap.pop r)
         ops
       &&
       (* Drain whatever remains: full order must agree. *)
       let rec drain () =
         match (Desim.Heap.pop h, List_heap.pop r) with
         | None, None -> true
         | a, b when a = b -> drain ()
         | _ -> false
       in
       drain ())

(* ------------------------------------------------------------------ *)
(* Region-log coalescing: same final memory, never more wire bytes     *)

let region = 256

let gen_stores =
  QCheck.Gen.(
    list_size (int_range 1 40)
      (int_range 0 1 >>= fun k ->
       if k = 0 then
         (* 8-aligned i64 store *)
         map
           (fun (slot, v) -> (slot * 8, Int64.of_int v))
           (pair (int_bound ((region / 8) - 1)) (int_bound 10_000))
       else
         map
           (fun (off, len) -> (off, Int64.of_int len))
           (pair (int_bound (region - 25)) (int_range 1 24))))

let replay log buf =
  (* Oldest-first, as grant patches and home application do. *)
  List.iter
    (fun (u : Samhita.Update.t) ->
       Bytes.blit u.Samhita.Update.data 0 buf u.Samhita.Update.addr
         (Bytes.length u.Samhita.Update.data))
    (List.rev log)

let prop_coalesced_log_equivalent =
  QCheck.Test.make
    ~name:"coalesced region log: same memory, wire bytes never larger"
    ~count:500
    (QCheck.make gen_stores)
    (fun stores ->
       let plain = ref [] and coal = ref [] in
       List.iteri
         (fun i (off, v) ->
            (* Even entries: i64 stores; odd entries reuse v as a length
               for a run of bytes — both shapes the runtime logs. *)
            let data =
              if i land 1 = 0 && off land 7 = 0 then Samhita.Update.i64_data v
              else
                Bytes.make
                  (min (Int64.to_int v mod 24 + 1) (region - off))
                  (Char.chr (i land 0xFF))
            in
            plain :=
              Samhita.Update.append ~coalesce:false !plain ~addr:off data;
            coal :=
              Samhita.Update.append ~coalesce:true !coal ~addr:off data)
         stores;
       let m1 = Bytes.make region '\000' in
       let m2 = Bytes.make region '\000' in
       replay !plain m1;
       replay !coal m2;
       Bytes.equal m1 m2
       && Samhita.Update.log_wire_bytes !coal
          <= Samhita.Update.log_wire_bytes !plain
       && List.length !coal <= List.length !plain)

(* ------------------------------------------------------------------ *)
(* Flat SMP line state vs. the per-line Hashtbl it replaced            *)

(* Reference: the retired [Smp.Machine] coherence model, one record per
   touched line in a Hashtbl, absent = cold. *)
module Smp_reference = struct
  type line = { mutable present : int; mutable owner : int }

  type t = {
    lines : (int, line) Hashtbl.t;
    mutable cold : int;
    mutable coherence : int;
    mutable invalidations : int;
  }

  let c = Smp.Config.default

  let create () =
    { lines = Hashtbl.create 16; cold = 0; coherence = 0; invalidations = 0 }

  let cold t =
    t.cold <- t.cold + 1;
    c.Smp.Config.t_cold_miss

  let read t ~thread ~line =
    let bit = 1 lsl thread in
    match Hashtbl.find_opt t.lines line with
    | None ->
      Hashtbl.replace t.lines line { present = bit; owner = -1 };
      cold t
    | Some st
      when st.present land bit <> 0 && (st.owner = thread || st.owner = -1) ->
      c.Smp.Config.t_mem
    | Some st ->
      let cost =
        if st.owner >= 0 && st.owner <> thread then begin
          t.coherence <- t.coherence + 1;
          c.Smp.Config.t_coherence_miss
        end
        else cold t
      in
      st.owner <- -1;
      st.present <- st.present lor bit;
      cost

  let write t ~thread ~line =
    let bit = 1 lsl thread in
    match Hashtbl.find_opt t.lines line with
    | None ->
      Hashtbl.replace t.lines line { present = bit; owner = thread };
      cold t
    | Some st when st.owner = thread -> c.Smp.Config.t_mem
    | Some st ->
      let cost =
        if st.present land lnot bit <> 0 || st.owner >= 0 then begin
          t.invalidations <- t.invalidations + 1;
          c.Smp.Config.t_invalidate
        end
        else if st.present land bit <> 0 then c.Smp.Config.t_mem
        else cold t
      in
      st.present <- bit;
      st.owner <- thread;
      cost
end

type smp_op = Access of { thread : int; write : bool; slot : int } | Grow

(* Byte offsets within a block: neighbours on one line (false sharing)
   and the lines on either side. *)
let smp_offsets = [| 0; 8; 56; 64; 120; 128 |]

let arb_smp_trace =
  QCheck.make
    ~print:(fun ops ->
      String.concat "; "
        (List.map
           (function
             | Grow -> "grow"
             | Access { thread; write; slot } ->
               Printf.sprintf "%c t%d s%d" (if write then 'W' else 'R')
                 thread slot)
           ops))
    QCheck.Gen.(
      list_size (int_range 1 120)
        (frequency
           [ (1, return Grow);
             ( 30,
               map3
                 (fun thread write slot -> Access { thread; write; slot })
                 (int_bound 7) bool (int_bound 63) ) ]))

(* Accesses go to a small first block; each of at most two [Grow]s
   allocates a megabyte block, which doubles the store (1 MiB after the
   first allocation), and adds to the address pool the block's first
   lines and the lines on both sides of the store's old end. Lines
   touched before a grow must keep their state across it. *)
let prop_smp_matches_hashtbl =
  QCheck.Test.make ~name:"flat SMP line state == Hashtbl reference"
    ~count:300 arb_smp_trace
    (fun ops ->
       let m = Smp.Machine.create Smp.Config.default in
       let r = Smp_reference.create () in
       let pool = ref [] and grows = ref 0 in
       let add_block base =
         Array.iter (fun o -> pool := (base + o) :: !pool) smp_offsets
       in
       add_block (Smp.Machine.alloc m ~bytes:256 ~align:64);
       let costs_agree =
         List.for_all
           (function
             | Grow ->
               if !grows < 2 then begin
                 let old_end = 1 lsl (20 + !grows) in
                 incr grows;
                 add_block (Smp.Machine.alloc m ~bytes:(1 lsl 20) ~align:64);
                 add_block (old_end - 64)
               end;
               true
             | Access { thread; write; slot } ->
               let addrs = Array.of_list !pool in
               let addr = addrs.(slot mod Array.length addrs) in
               let line = addr lsr 6 in
               if write then
                 Smp.Machine.write_cost m ~thread ~addr
                 = Smp_reference.write r ~thread ~line
               else
                 Smp.Machine.read_cost m ~thread ~addr
                 = Smp_reference.read r ~thread ~line)
           ops
       in
       costs_agree
       && Smp.Machine.cold_misses m = r.Smp_reference.cold
       && Smp.Machine.coherence_misses m = r.Smp_reference.coherence
       && Smp.Machine.invalidations m = r.Smp_reference.invalidations)

let tests =
  [ QCheck_alcotest.to_alcotest prop_diff_matches_reference;
    QCheck_alcotest.to_alcotest prop_victims_match_scan;
    QCheck_alcotest.to_alcotest prop_recycled_buffers_unshared;
    QCheck_alcotest.to_alcotest prop_heap_matches_boxed;
    QCheck_alcotest.to_alcotest prop_coalesced_log_equivalent;
    QCheck_alcotest.to_alcotest prop_smp_matches_hashtbl ]

let () = Alcotest.run "hotpath-equiv" [ ("equivalence", tests) ]
