(* The repo benchmark: runs one workload for a time budget and prints its
   metrics as one JSON line.

     bench.exe --workload jacobi --seed 1 --seconds 30 --trace 0

   --trace 0 reports the end-to-end metrics of untraced passes; --trace 1
   reports the per-layer metrics of a traced pass (every backend call a
   boundary crossing, see Tracer) plus the tracing overhead. Every pass
   runs in a forked child, so no pass inherits another's heap, and checks
   its outputs; simulated figures must agree across all passes. *)

open Perfbench

type pass = {
  wall_ns : int;
  marks : int array;  (** {!Tracer} marks, ns. *)
  bounds : (int * int * int) array;
      (** Per kernel run, in order: indices of the marks at its start, at
          [run] entry (setup before) and at its end. *)
  syncs : int;
  layers : (string * float) list;  (** Tracer figures (fine passes). *)
  ops : int;
      (** Backend read/write/lock/unlock/barrier calls, both backends
          (not counted at [Coarse] level). *)
  alloc_words : float;
  top_heap_words : int;
  major_collections : int;
  attempted : int;
  failed : int;
  errors : string list;
  sim : (string * float) list;  (** Deterministic figures. *)
  calib_ns : int;  (** {!Calib.fastest} after the pass. *)
}

(* ------------------------------------------------------------------ *)
(* Passes, each in its own process. *)

let in_child (f : unit -> 'a) : 'a =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    let oc = Unix.out_channel_of_descr wr in
    Marshal.to_channel oc (r : ('a, string) result) [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let r =
      try (Marshal.from_channel ic : ('a, string) result)
      with End_of_file -> Error "pass process died"
    in
    close_in ic;
    ignore (Unix.waitpid [] pid : int * Unix.process_status);
    (match r with Ok v -> v | Error e -> failwith ("pass failed: " ^ e))

let layer_figures (tr : Tracer.t) ~wall_ns =
  let s l = float_of_int (Tracer.self_ns tr l) in
  [ ("workload.self_ns", s Workload);
    ("thread_ctx.hit_calls", float_of_int tr.Tracer.hit_calls);
    ("thread_ctx.hit_ns", s Hit);
    ("miss.calls", float_of_int tr.miss_calls);
    ("miss.ns", s Miss);
    ("sync.calls", float_of_int tr.sync_calls);
    ("sync.ns", s Sync);
    ("backend.other_ns", s Other);
    ("desim.run_ns", s Engine);
    ("smp.self_ns", s Smp);
    ("harness.self_ns", s Harness);
    ("setup.traffic_s", s Setup_traffic /. 1e9);
    ("setup.create_s", s Setup_create /. 1e9);
    ("trace.wall_ns", float_of_int wall_ns);
    ("desim.suspended_ns", float_of_int tr.suspended_ns);
    ("smp.ops", float_of_int tr.smp_ops) ]

let one_pass level ?spans ?stride_mask scale ~seed w =
  Gc.compact ();
  let env = Workloads.new_env ?stride_mask level in
  Workloads.pass env scale ~seed w;
  let wall_ns = Tracer.finish env.tr in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  Option.iter (Tracer.write_spans env.tr) spans;
  let tr = env.tr in
  let ops =
    match level with
    | Wrap.Coarse -> 0
    | Count -> !(env.ops)
    | Fine -> tr.Tracer.hit_calls + tr.miss_calls + tr.sync_calls + tr.smp_ops
  in
  let counted =
    if level = Coarse then []
    else
      let q p =
        float_of_int (Harness.Percentile.percentile env.sync_latency_ns p) /. 1e3
      in
      ("ops", float_of_int ops) :: ("sync_calls", float_of_int tr.syncs)
      :: (if w = Workloads.Kv_serve then []
          else [ ("sim_p50_us", q 0.5); ("sim_p99_us", q 0.99) ])
  in
  { wall_ns;
    marks = Array.sub tr.Tracer.marks 0 tr.n_marks;
    bounds = Array.of_list (List.rev tr.bounds);
    syncs = tr.syncs;
    layers = (if level = Fine then layer_figures tr ~wall_ns else []);
    ops;
    alloc_words = env.alloc_words;
    top_heap_words;
    major_collections = env.major_collections;
    attempted = env.attempted;
    failed = env.failed;
    errors = List.rev env.errors;
    sim = counted @ List.rev env.sim @ Workloads.system_counters env;
    calib_ns = Calib.fastest 10 }

(* A traced run of the SMP baseline alone, for [smp.ns_per_op]. *)
let pth_pass scale ~seed w =
  let env = Workloads.new_env Fine in
  Workloads.pth_extra env scale ~seed w;
  ignore (Tracer.finish env.tr : int);
  let tr = env.tr in
  (float_of_int (Tracer.self_ns tr Smp), tr.Tracer.smp_ops, env.attempted, env.failed,
   List.rev env.errors)

(* ------------------------------------------------------------------ *)
(* Statistics and output. *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The median over [passes] of a pass's kernel-run time, in s. *)
let median_runs_s passes =
  median
    (List.map
       (fun p ->
          float_of_int
            (Array.fold_left
               (fun acc (first, _, last) -> acc + p.marks.(last) - p.marks.(first))
               0 p.bounds)
          /. 1e9)
       passes)

(* The host time of work that [passes] all did identically, in s: each
   segment between consecutive marks of a kernel run (up to its [run]
   entry when [setup]), at its fastest over the passes, summed. This
   host's speed swings by up to 2x, in spells from a fraction of a second
   to minutes, so whole-pass times move with the spells a run happens to
   catch. A segment lasts milliseconds, and some pass runs it at full
   speed. *)
let fastest ~setup passes =
  let p0 = List.hd passes in
  let total = ref 0 in
  Array.iter
    (fun (first, engine, last) ->
       for i = first to (if setup then engine else last) - 1 do
         total :=
           !total
           + List.fold_left
             (fun m p -> min m (p.marks.(i + 1) - p.marks.(i)))
             max_int passes
       done)
    p0.bounds;
  float_of_int !total /. 1e9

(* A checkpoint stride giving at most about 2000 marks a pass. *)
let stride_mask ~syncs =
  let rec go b = if syncs lsr b <= 2000 then (1 lsl b) - 1 else go (b + 1) in
  go 0

(* The pass whose wall time is the median one (lower middle if even). *)
let median_pass passes =
  let a = Array.of_list passes in
  Array.sort (fun p q -> compare p.wall_ns q.wall_ns) a;
  a.((Array.length a - 1) / 2)

(* A value that failed to measure prints as null, never as invalid JSON. *)
let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  "{" ^ String.concat ", "
    (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

(* Simulated figures that differ between passes (there must be none). *)
let mismatches passes =
  match passes with
  | [] -> []
  | first :: rest ->
    List.concat_map
      (fun p ->
         List.filter_map
           (fun (k, v) ->
              match List.assoc_opt k first.sim with
              | Some v0 when v0 <> v && not (Float.is_nan v0 && Float.is_nan v) ->
                Some (Printf.sprintf "%s: %.17g vs %.17g" k v0 v)
              | _ -> None)
           p.sim)
      rest
    |> List.sort_uniq compare

let catalog_json () =
  let metric (m : Catalog.metric) ~e2e =
    json_obj
      ([ ("name", json_string m.name); ("unit", json_string m.unit_);
         ("better", json_string (Catalog.better_name m.better)) ]
       @ if e2e then [ ("bound", json_float m.bound) ] else [])
  in
  let list ms ~e2e = "[" ^ String.concat ", " (List.map (metric ~e2e) ms) ^ "]" in
  json_obj
    [ ("end_to_end", list Catalog.end_to_end ~e2e:true);
      ("per_layer", list Catalog.per_layer ~e2e:false);
      ("self_time_parts",
       json_obj
         (List.map (fun (k, ns) -> (k, json_float ns)) Catalog.self_time_parts)) ]

(* ------------------------------------------------------------------ *)

let usage =
  "bench.exe --workload (jacobi|false-sharing|kv-serve) --seed N --seconds S \
   --trace (0|1) [--scale (full|tiny)] [--spans FILE]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10
  and trace = ref 0 and scale = ref "full" and spans = ref ""
  and catalog = ref false in
  let specs =
    [ ("--workload", Arg.Set_string workload, " jacobi | false-sharing | kv-serve");
      ("--seed", Arg.Set_int seed, " input seed (kv-serve traffic)");
      ("--seconds", Arg.Set_int seconds, " measuring budget");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer");
      ("--scale", Arg.Set_string scale, " full | tiny (tests)");
      ("--spans", Arg.Set_string spans, " write the traced pass's spans here");
      ("--catalog", Arg.Set catalog, " print the metric catalog and exit") ]
  in
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv specs (fun a -> fail ("unexpected " ^ a)) usage
   with Arg.Bad m | Arg.Help m -> prerr_string m; exit 2);
  if !catalog then begin
    print_endline (catalog_json ());
    exit 0
  end;
  let w =
    match List.assoc_opt !workload Workloads.names with
    | Some w -> w
    | None -> fail (Printf.sprintf "unknown workload %S" !workload)
  in
  let scale =
    match !scale with
    | "full" -> Workloads.Full
    | "tiny" -> Workloads.Tiny
    | s -> fail (Printf.sprintf "unknown scale %S" s)
  in
  if !seconds < 1 then fail "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  let seed = !seed and traced = !trace = 1 in
  (* Traced steps only feed per-layer figures, which carry no bound. *)
  let min_passes = if scale = Workloads.Full && not traced then 3 else 1 in
  (* Warm-up, counting the ops that per-op figures divide by, and the
     sync calls that set the checkpoint stride of the timed passes. *)
  let warm = in_child (fun () -> one_pass Count scale ~seed w) in
  let stride_mask = stride_mask ~syncs:warm.syncs in
  let pass ?spans level =
    in_child (fun () -> one_pass level ?spans ~stride_mask scale ~seed w)
  in
  (* One step: a timed pass, or a timed and a traced pass. Steps stop
     before one would overrun the budget, once [min_passes] are done. *)
  let step () =
    if traced then
      let spans = if !spans = "" then None else Some !spans in
      let plain = pass Coarse in
      [ pass ?spans Fine; plain ]
    else [ pass Coarse ]
  in
  let t0 = Unix.gettimeofday () in
  let rec loop acc n last =
    let elapsed = Unix.gettimeofday () -. t0 in
    if n >= min_passes && elapsed +. last > float_of_int !seconds then
      List.rev acc
    else
      let s0 = Unix.gettimeofday () in
      let ps = step () in
      loop (ps @ acc) (n + 1) (Unix.gettimeofday () -. s0)
  in
  let timed = loop [] 0 0. in
  let traced_passes, plain = List.partition (fun p -> p.layers <> []) timed in
  let all = warm :: timed in
  let mism =
    mismatches all
    @ (if List.exists
           (fun p -> p.bounds <> (List.hd plain).bounds
                     || Array.length p.marks <> Array.length (List.hd plain).marks)
           plain
       then [ "timed passes marked different work" ]
       else [])
  in
  let ops = float_of_int warm.ops in
  let med f ps = median (List.map f ps) in
  (* Host timings at the reference speed of {!Calib}. *)
  let calib_ns = List.fold_left (fun m p -> min m p.calib_ns) max_int plain in
  let speed = float_of_int Calib.reference_ns /. float_of_int calib_ns in
  let host_s = if mism = [] then speed *. fastest ~setup:false plain else nan in
  let smp =
    if traced && w <> Workloads.Jacobi then
      Some (in_child (fun () -> pth_pass scale ~seed w))
    else None
  in
  let attempted, failed, errors =
    List.fold_left
      (fun (a, f, e) p -> (a + p.attempted, f + p.failed, e @ p.errors))
      (0, 0, []) all
  in
  let attempted, failed, errors =
    match smp with
    | Some (_, _, a, f, e) -> (attempted + a, failed + f, errors @ e)
    | None -> (attempted, failed, errors)
  in
  let sim k = Option.value (List.assoc_opt k warm.sim) ~default:nan in
  let metrics =
    if not traced then
      [ ("host_s", host_s);
        ("sim_ops_per_s", ops /. host_s);
        ("setup_s", if mism = [] then speed *. fastest ~setup:true plain else nan);
        ("heap_peak_mb",
         med (fun p -> float_of_int (p.top_heap_words * (Sys.word_size / 8))
                       /. 1048576.) plain);
        ("alloc_words_per_op", med (fun p -> p.alloc_words) plain /. ops);
        ("sim_ms", sim "sim_ms");
        ("sim_p50_us", sim "sim_p50_us");
        ("sim_p99_us", sim "sim_p99_us") ]
    else begin
      let tp = median_pass traced_passes in
      let up = median_pass plain in
      let l k = List.assoc k tp.layers in
      let smp_ns, smp_ops =
        match smp with
        | Some (ns, n, _, _, _) -> (ns, float_of_int n)
        | None -> (l "smp.self_ns", l "smp.ops")
      in
      let events = sim "desim.events" in
      List.filter (fun (k, _) -> k <> "desim.suspended_ns" && k <> "smp.ops")
        tp.layers
      @ [ ("workload.self_ns_per_op", l "workload.self_ns" /. float_of_int tp.ops);
          ("trace.overhead_s",
           median_runs_s traced_passes -. median_runs_s plain);
          ("desim.ns_per_event", l "desim.suspended_ns" /. events);
          ("smp.ns_per_op", smp_ns /. smp_ops);
          ("gc.minor_words_per_op", up.alloc_words /. ops);
          ("gc.major_collections", float_of_int up.major_collections) ]
      @ List.filter_map
        (fun (m : Catalog.metric) ->
           Option.map (fun v -> (m.name, v)) (List.assoc_opt m.name warm.sim))
        Catalog.per_layer
    end
  in
  let catalog = if traced then Catalog.per_layer else Catalog.end_to_end in
  let missing =
    List.filter (fun (m : Catalog.metric) -> not (List.mem_assoc m.name metrics))
      catalog
  in
  let not_finite = List.filter (fun (_, v) -> not (Float.is_finite v)) metrics in
  let correct = failed = 0 && mism = [] && missing = [] && not_finite = [] in
  (* Human-readable context; the result is the last line alone. *)
  List.iter (fun e -> Printf.printf "FAILED: %s\n" e) errors;
  List.iter (fun m -> Printf.printf "NONDETERMINISTIC: %s\n" m) mism;
  List.iter (fun (m : Catalog.metric) -> Printf.printf "MISSING: %s\n" m.name) missing;
  List.iter (fun (k, _) -> Printf.printf "NOT FINITE: %s\n" k) not_finite;
  let report =
    json_obj
      [ ("workload", json_string (Workloads.name w));
        ("seed", string_of_int seed);
        ("trace", string_of_int !trace);
        ("nproc", string_of_int (Domain.recommended_domain_count ()));
        ("ocaml", json_string Sys.ocaml_version);
        ("flambda", string_of_bool Build_info.flambda);
        ("passes", string_of_int (List.length plain));
        ("median_pass_host_s", json_float (median_runs_s plain));
        ("calib_ms", json_float (float_of_int calib_ns /. 1e6));
        ("unscaled_host_s", json_float (host_s /. speed));
        ("pass_wall_s",
         let walls = List.map (fun p -> float_of_int p.wall_ns /. 1e9) plain in
         json_obj
           [ ("min", json_float (List.fold_left Float.min infinity walls));
             ("median", json_float (median walls));
             ("max", json_float (List.fold_left Float.max 0. walls)) ]);
        ("error_rate",
         json_float (float_of_int failed /. float_of_int (max 1 attempted)));
        ("deterministic", string_of_bool (mism = []));
        ("sim", json_obj (List.map (fun (k, v) -> (k, json_float v)) warm.sim)) ]
  in
  print_endline ("report " ^ report);
  let metric_json (k, v) =
    let m = Catalog.find k in
    (k, json_obj [ ("value", json_float v); ("unit", json_string m.unit_) ])
  in
  print_endline
    (json_obj
       [ ("correct", string_of_bool correct);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics", json_obj (List.map metric_json metrics)) ])
