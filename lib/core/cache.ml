type entry = {
  (* -1 once removed (see [remove]). *)
  mutable line : int;
  data : bytes;
  mutable version : int;
  mutable twin : bytes option;
  mutable dirty_pages : int;
  mutable tick : int;
  (* Sequential-consistency mode only: this copy is the line's single
     writable instance. *)
  mutable excl : bool;
  (* Intrusive LRU chain links (see the chain invariant below). A resident
     entry points at its neighbours or a chain sentinel; an entry not on
     any chain is self-linked. *)
  mutable lru_prev : entry;
  mutable lru_next : entry;
}

type arrival = (bytes * int) option

type pending = {
  mutable stale : bool;
  mutable waiters : (arrival -> unit) list;
}

(* Line ids are small non-negative ints: hash them as themselves, so a
   lookup on every line switch is a mask instead of a [caml_hash] call.
   Iteration order is never observed ([entries] and [dirty_entries]
   sort). *)
module Itbl = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash (l : int) = l
  end)

(* Spare line-sized buffers kept per cache for fetch replies and twins. *)
let spare_slots = 8

(* Resident entries live on one of two intrusive doubly-linked chains —
   [lru_dirty] for entries with dirty pages, [lru_clean] for the rest. The
   chains track *membership only* (their internal order is arbitrary):
   recency lives exclusively in the [tick] stamps, so touching an entry on
   the access path is a single store, exactly as cheap as before the
   chains existed. Victim selection scans one chain for the minimum tick —
   never the whole table: the write-biased policy reads only the dirty
   chain (typically a small fraction of residency) and falls back to the
   clean chain, and the prefetch path reads only the clean chain. Ticks
   are unique, so the choice equals the old full-table scan's exactly.
   The dirty chain doubles as the maintained index for [dirty_entries].

   Keeping the chains in strict LRU order instead (O(1) victim reads) was
   measured and rejected: it moves an unlink+append onto every touch, and
   workloads that round-robin a few lines (a stencil's rows defeat the
   single-entry fast path in [Thread_ctx.locate]) pay it per access —
   ~25% end-to-end on the Jacobi figure — while evictions, which the
   ordering would speed up, are orders of magnitude rarer. *)
type t = {
  layout : Layout.t;
  capacity : int;
  evict_dirty_first : bool;
  table : entry Itbl.t;
  pending : pending Itbl.t;
  (* A stack of [n_spare] recycled line buffers in [spare.(0 ..)]. It
     fills lazily: [create] allocates no line. *)
  spare : bytes array;
  mutable n_spare : int;
  mutable tick : int;
  lru_clean : entry;  (* sentinel *)
  lru_dirty : entry;  (* sentinel *)
  (* Never resident, never on a chain: the "no entry" value of callers
     that keep a last-used entry without an option. One per cache, so
     independent runs on different domains share no mutable value. *)
  no_entry : entry;
  c_hits : Desim.Stats.Counter.t;
  c_misses : Desim.Stats.Counter.t;
  c_evictions : Desim.Stats.Counter.t;
  c_dirty_evictions : Desim.Stats.Counter.t;
  c_invalidations : Desim.Stats.Counter.t;
  c_prefetch_installs : Desim.Stats.Counter.t;
}

let sentinel () =
  let rec s =
    { line = -1; data = Bytes.empty; version = 0; twin = None;
      dirty_pages = 0; tick = min_int; excl = false; lru_prev = s;
      lru_next = s }
  in
  s

let create (cfg : Config.t) layout =
  { layout;
    capacity = cfg.Config.cache_lines;
    evict_dirty_first = cfg.Config.evict_dirty_first;
    table = Itbl.create 256;
    pending = Itbl.create 16;
    spare = Array.make spare_slots Bytes.empty;
    n_spare = 0;
    tick = 0;
    lru_clean = sentinel ();
    lru_dirty = sentinel ();
    no_entry = sentinel ();
    c_hits = Desim.Stats.Counter.create ();
    c_misses = Desim.Stats.Counter.create ();
    c_evictions = Desim.Stats.Counter.create ();
    c_dirty_evictions = Desim.Stats.Counter.create ();
    c_invalidations = Desim.Stats.Counter.create ();
    c_prefetch_installs = Desim.Stats.Counter.create () }

let no_entry t = t.no_entry
let spares t = Array.to_list (Array.sub t.spare 0 t.n_spare)
let capacity t = t.capacity
let size t = Itbl.length t.table

let is_dirty e = e.dirty_pages <> 0

(* ---- intrusive chain primitives ---- *)

(* Idempotent: unlinking a self-linked entry is a no-op. *)
let unlink e =
  e.lru_prev.lru_next <- e.lru_next;
  e.lru_next.lru_prev <- e.lru_prev;
  e.lru_prev <- e;
  e.lru_next <- e

(* Chain order is arbitrary; push anywhere cheap (the front). *)
let push (s : entry) (e : entry) =
  e.lru_prev <- s;
  e.lru_next <- s.lru_next;
  s.lru_next.lru_prev <- e;
  s.lru_next <- e

let linked e = e.lru_next != e

(* The access path: recency is the tick stamp alone, so this stays the
   single store it was before the chains existed. *)
let touch t (e : entry) =
  t.tick <- t.tick + 1;
  e.tick <- t.tick

let find t line =
  match Itbl.find_opt t.table line with
  | Some e ->
    touch t e;
    Some e
  | None -> None

(* [find] without the option wrapper: [find_opt] allocates a
   [Some] and [find] rebuilds another, two minor blocks on every access
   whose line differs from the previous one (any stencil kernel defeats
   the single-entry fast path). The hot callers match the exception
   inline, so no [Some] is ever built on the hit path. *)
let find_exn t line =
  let e = Itbl.find t.table line in
  touch t e;
  e

let peek t line = Itbl.find_opt t.table line

(* Minimum-tick entry of one chain (ticks are unique, so the walk order
   cannot matter). *)
let chain_oldest (s : entry) =
  let rec go (at : entry) (best : entry option) =
    if at == s then best
    else
      go at.lru_next
        (match best with
         | Some b when b.tick < at.tick -> best
         | _ -> Some at)
  in
  go s.lru_next None

(* Scans only the relevant chain(s); equivalent to the old full-table scan
   (see the chain invariant above). *)
let choose_victim t ~allow_dirty =
  if t.evict_dirty_first then begin
    let d = if allow_dirty then chain_oldest t.lru_dirty else None in
    match d with Some _ -> d | None -> chain_oldest t.lru_clean
  end
  else
    let d = if allow_dirty then chain_oldest t.lru_dirty else None in
    let c = chain_oldest t.lru_clean in
    match (d, c) with
    | None, v | v, None -> v
    | Some de, Some ce -> if de.tick < ce.tick then Some de else Some ce

(* ---- line buffers ---- *)

(* A spare buffer, or a fresh one while the stack is empty. Its contents
   are garbage: the caller overwrites the whole line. *)
let buffer t =
  if t.n_spare = 0 then Bytes.create t.layout.Layout.line_bytes
  else begin
    let n = t.n_spare - 1 in
    t.n_spare <- n;
    Array.unsafe_get t.spare n
  end

(* Hand a buffer nothing references any more back to the stack; past
   [spare_slots] it is left to the GC. *)
let recycle t b =
  if t.n_spare < spare_slots then begin
    Array.unsafe_set t.spare t.n_spare b;
    t.n_spare <- t.n_spare + 1
  end

let recycle_twin t e =
  match e.twin with
  | Some tw ->
    e.twin <- None;
    recycle t tw
  | None -> ()

(* Removal recycles the entry's buffers and poisons it: [line] becomes -1,
   which no address maps to, so a caller still holding the entry (a
   fast-path [last], an eviction victim) can never match it again. A
   second [remove] is a no-op: an SC victim can be invalidated by another
   thread while its writeback yields, before [insert] removes it. *)
let remove t (e : entry) =
  if e.line >= 0 then begin
    unlink e;
    Itbl.remove t.table e.line;
    e.line <- -1;
    recycle_twin t e;
    recycle t e.data
  end

let insert t ~line ~data ~version ~evict =
  (* The caller may have yielded between detecting the miss and calling
     insert (clock sync, fetch round trip, or the victim flush below), and
     an asynchronous prefetch completion can install lines meanwhile — so
     re-check rather than assume absence. *)
  match Itbl.find_opt t.table line with
  | Some e ->
    recycle t data;
    touch t e;
    e
  | None ->
    if Itbl.length t.table >= t.capacity then begin
      match choose_victim t ~allow_dirty:true with
      | None -> ()
      | Some victim ->
        Desim.Stats.Counter.incr t.c_evictions;
        if is_dirty victim then
          Desim.Stats.Counter.incr t.c_dirty_evictions;
        (* [evict] may flush (and yield); re-check afterwards. *)
        evict victim;
        remove t victim
    end;
    (match Itbl.find_opt t.table line with
     | Some e ->
       recycle t data;
       touch t e;
       e
     | None ->
       let rec e =
         { line; data; version; twin = None; dirty_pages = 0; tick = 0;
           excl = false; lru_prev = e; lru_next = e }
       in
       t.tick <- t.tick + 1;
       e.tick <- t.tick;
       push t.lru_clean e;
       Itbl.replace t.table line e;
       e)

let ensure_room t ~line ~evict =
  let rec go () =
    if
      (not (Itbl.mem t.table line))
      && Itbl.length t.table >= t.capacity
    then begin
      match choose_victim t ~allow_dirty:true with
      | None -> ()
      | Some victim ->
        Desim.Stats.Counter.incr t.c_evictions;
        if is_dirty victim then Desim.Stats.Counter.incr t.c_dirty_evictions;
        evict victim;
        remove t victim;
        go ()
    end
  in
  go ()

let try_install t ~line ~data ~version =
  if Itbl.mem t.table line then begin
    recycle t data;
    false
  end
  else begin
    let have_room =
      if Itbl.length t.table < t.capacity then true
      else
        match choose_victim t ~allow_dirty:false with
        | Some victim ->
          Desim.Stats.Counter.incr t.c_evictions;
          remove t victim;
          true
        | None -> false
    in
    if have_room then begin
      let rec e =
        { line; data; version; twin = None; dirty_pages = 0; tick = 0;
          excl = false; lru_prev = e; lru_next = e }
      in
      t.tick <- t.tick + 1;
      e.tick <- t.tick;
      push t.lru_clean e;
      Itbl.replace t.table line e;
      Desim.Stats.Counter.incr t.c_prefetch_installs
    end
    else recycle t data;
    have_room
  end

let mark_written t e ~offset ~len =
  (match e.twin with
   | None ->
     let tw = buffer t in
     Bytes.blit e.data 0 tw 0 (Bytes.length tw);
     e.twin <- Some tw
   | Some _ -> ());
  let was_dirty = is_dirty e in
  let first = Layout.page_in_line t.layout ~offset in
  let last = Layout.page_in_line t.layout ~offset:(offset + len - 1) in
  for p = first to last do
    e.dirty_pages <- e.dirty_pages lor (1 lsl p)
  done;
  if (not was_dirty) && is_dirty e && linked e then begin
    unlink e;
    push t.lru_dirty e
  end

let invalidate t line =
  (match Itbl.find_opt t.table line with
   | Some e ->
     Desim.Stats.Counter.incr t.c_invalidations;
     remove t e
   | None -> ());
  match Itbl.find_opt t.pending line with
  | Some p -> p.stale <- true
  | None -> ()

(* Walk the dirty chain (the maintained index) instead of folding the
   whole table; only the handful of dirty entries pay the sort. *)
let dirty_entries t =
  let rec collect at acc =
    if at == t.lru_dirty then acc else collect at.lru_next (at :: acc)
  in
  collect t.lru_dirty.lru_next []
  |> List.sort (fun a b -> Int.compare a.line b.line)

let entries t =
  Itbl.fold (fun _ e acc -> e :: acc) t.table []
  |> List.sort (fun a b -> Int.compare a.line b.line)

let clean t e ~version =
  recycle_twin t e;
  let was_dirty = is_dirty e in
  e.dirty_pages <- 0;
  e.version <- version;
  if was_dirty && linked e then begin
    unlink e;
    push t.lru_clean e
  end

let pending_start t line =
  if Itbl.mem t.pending line then false
  else begin
    Itbl.replace t.pending line { stale = false; waiters = [] };
    true
  end

let is_pending t line = Itbl.mem t.pending line

let pending_wait t line =
  match Itbl.find_opt t.pending line with
  | None -> None
  | Some p -> Some (fun wake -> p.waiters <- wake :: p.waiters)

let pending_abort t line =
  match Itbl.find_opt t.pending line with
  | None -> ()
  | Some p ->
    Itbl.remove t.pending line;
    List.iter (fun wake -> wake None) (List.rev p.waiters)

let pending_complete t line ~data ~version =
  match Itbl.find_opt t.pending line with
  | None -> ()
  | Some p ->
    Itbl.remove t.pending line;
    let result = if p.stale then None else Some (data, version) in
    if p.stale then recycle t data;
    (match (p.waiters, result) with
     | [], Some (data, version) ->
       ignore (try_install t ~line ~data ~version : bool)
     | [], None -> ()
     | waiters, result ->
       (* FIFO wake order: earliest waiter installs, the rest find it. *)
       List.iter (fun wake -> wake result) (List.rev waiters))

let hits t = Desim.Stats.Counter.value t.c_hits
let misses t = Desim.Stats.Counter.value t.c_misses
let evictions t = Desim.Stats.Counter.value t.c_evictions
let dirty_evictions t = Desim.Stats.Counter.value t.c_dirty_evictions
let invalidations t = Desim.Stats.Counter.value t.c_invalidations
let prefetch_installs t = Desim.Stats.Counter.value t.c_prefetch_installs
let note_hit t = Desim.Stats.Counter.incr t.c_hits
let note_miss t = Desim.Stats.Counter.incr t.c_misses
