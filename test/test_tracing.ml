(* Tests for the observer stream: a recorded run hears the expected event
   kinds at plausible times, subscribers fan out one identical stream,
   and observing never changes the simulation. *)

module T = Samhita.Thread_ctx
module P = Samhita.Probe

let kind : P.event -> string = function
  | Read _ -> "read"
  | Write _ -> "write"
  | Publish _ -> "publish"
  | Malloc _ -> "malloc"
  | Free _ -> "free"
  | Barrier { phase = `Arrive; _ } -> "barrier-arrive"
  | Barrier { phase = `Depart; _ } -> "barrier-depart"
  | Sync { op = Lock_acquired _; _ } -> "lock-acquired"
  | Sync { op = Unlock _; _ } -> "unlock"
  | Sync { op = Cond_signal _ | Cond_wake _; _ } -> "cond"
  | Lock_attempt _ -> "lock-attempt"
  | Grant _ -> "grant"
  | Unlock_start _ -> "unlock-start"
  | Release _ -> "release"
  | Fetch _ -> "fetch"
  | Evict_flush _ -> "evict-flush"
  | Crash _ -> "crash"
  | Recovery _ -> "recovery"
  | Rejoin _ -> "rejoin"

let recorder () =
  let events = ref [] in
  ((fun ev -> events := ev :: !events), fun () -> List.rev !events)

let traced_ids = ref (0, 0) (* (lock, barrier) of the last recorded run *)

(* Two threads: allocate, cross a barrier, write ordinary and
   lock-protected data, cross the barrier again and read. [subscribe]
   runs on the fresh system, before any spawn. *)
let run_kernel subscribe =
  let sys = Samhita.System.create ~threads:2 () in
  subscribe sys;
  let m = Samhita.System.mutex sys in
  let bar = Samhita.System.barrier sys ~parties:2 in
  traced_ids := (m, bar);
  let base = ref 0 in
  for tid = 0 to 1 do
    ignore
      (Samhita.System.spawn sys (fun t ->
           if tid = 0 then base := T.malloc t ~bytes:64;
           T.barrier_wait t bar;
           T.write_f64 t (!base + (tid * 8)) 1.0;
           T.mutex_lock t m;
           T.write_f64 t (!base + 32) (float_of_int tid);
           T.mutex_unlock t m;
           T.barrier_wait t bar;
           ignore (T.read_f64 t !base : float))
        : T.t)
  done;
  Samhita.System.run sys;
  sys

let run_recorded () =
  let record, events = recorder () in
  let sys = run_kernel (fun sys -> Samhita.System.subscribe sys record) in
  (events (), sys)

let test_event_kinds () =
  let events, _ = run_recorded () in
  let kinds = List.sort_uniq compare (List.map kind events) in
  List.iter
    (fun k -> Alcotest.(check bool) ("has " ^ k) true (List.mem k kinds))
    [ "read"; "write"; "publish"; "malloc"; "barrier-arrive";
      "barrier-depart"; "lock-attempt"; "grant"; "lock-acquired";
      "unlock-start"; "release"; "unlock"; "fetch" ]

let monotone times =
  let rec go = function
    | a :: (b :: _ as rest) -> Desim.Time.(a <= b) && go rest
    | _ -> true
  in
  go times

let test_events_timestamped_monotone () =
  let events, sys = run_recorded () in
  Alcotest.(check bool) "events recorded" true (List.length events > 6);
  let wall = Samhita.System.elapsed sys in
  List.iter
    (fun e ->
       Alcotest.(check bool) "within run" true Desim.Time.(P.time e <= wall))
    events;
  Alcotest.(check bool) "emission order respects time" true
    (monotone (List.map P.time events))

let test_acquire_actions_visible () =
  let events, _ = run_recorded () in
  let actions =
    List.filter_map (function P.Grant { action; _ } -> Some action | _ -> None)
      events
  in
  (* The first acquire is fresh; the second holder's grant carries the
     first holder's update. *)
  Alcotest.(check bool) "some acquire is fresh" true
    (List.mem P.Fresh actions);
  Alcotest.(check bool) "some acquire patches" true
    (List.exists (function P.Patch n -> n > 0 | _ -> false) actions)

let test_sync_events_carry_ids () =
  let events, _ = run_recorded () in
  let lock, bar = !traced_ids in
  (* Every lock event names the lock that changed hands; every barrier
     event names the barrier. The kernel touches exactly one of each, so
     the ids must match what System handed out. *)
  let locks =
    List.filter_map
      (function
        | P.Lock_attempt { lock; _ } | Grant { lock; _ }
        | Unlock_start { lock; _ } | Release { lock; _ }
        | Sync { op = Lock_acquired lock | Unlock lock; _ } ->
          Some lock
        | _ -> None)
      events
  in
  let departs =
    List.filter_map
      (function
        | P.Barrier { barrier; phase = `Depart; _ } -> Some barrier
        | _ -> None)
      events
  in
  Alcotest.(check bool) "lock events present" true (locks <> []);
  List.iter (Alcotest.(check int) "lock id" lock) locks;
  List.iter (Alcotest.(check int) "barrier id" bar) departs;
  (* Both threads contribute two barrier episodes each. *)
  Alcotest.(check int) "four barrier departures" 4 (List.length departs)

let test_sync_events_monotone_per_tag () =
  let events, _ = run_recorded () in
  List.iter
    (fun k ->
       let times =
         List.filter_map
           (fun e -> if kind e = k then Some (P.time e) else None)
           events
       in
       Alcotest.(check bool) (k ^ " timestamps monotone") true
         (monotone times))
    [ "grant"; "release"; "barrier-depart" ]

(* A cache smaller than the working set evicts dirty lines: each
   eviction flush is reported right after the publication it caused. *)
let test_eviction_flush_reported () =
  let config = { Samhita.Config.default with Samhita.Config.cache_lines = 2 } in
  let line = Samhita.Config.line_bytes config in
  let record, events = recorder () in
  let sys = Samhita.System.create ~config ~threads:1 () in
  Samhita.System.subscribe sys record;
  ignore
    (Samhita.System.spawn sys (fun t ->
         let base = T.malloc t ~bytes:(6 * line) in
         for i = 0 to 5 do
           T.write_f64 t (base + (i * line)) 1.0
         done)
      : T.t);
  Samhita.System.run sys;
  let rec flushes = function
    | P.Publish { line = pl; _ } :: P.Evict_flush { line; bytes; _ } :: rest ->
      Alcotest.(check int) "flush follows its publication" pl line;
      Alcotest.(check bool) "payload" true (bytes > 0);
      1 + flushes rest
    | P.Evict_flush _ :: _ -> Alcotest.fail "flush without publication"
    | _ :: rest -> flushes rest
    | [] -> 0
  in
  Alcotest.(check bool) "evictions flushed" true (flushes (events ()) > 0)

(* The default system observes nothing: its threads see an empty
   subscriber list (the one-branch path); [Config.sanitize] subscribes
   RegCSan and nothing else. *)
let test_no_subscriber_by_default () =
  let subscribers config =
    let n = ref (-1) in
    let sys = Samhita.System.create ~config ~threads:1 () in
    ignore
      (Samhita.System.spawn sys (fun t ->
           n := List.length (T.env t).T.subscribers)
        : T.t);
    Samhita.System.run sys;
    !n
  in
  Alcotest.(check int) "default" 0 (subscribers Samhita.Config.default);
  Alcotest.(check int) "sanitize" 1
    (subscribers { Samhita.Config.default with Samhita.Config.sanitize = true })

(* ---------------- fan-out ---------------- *)

let test_two_subscribers_one_stream () =
  let first, events1 = recorder () and second, events2 = recorder () in
  ignore
    (run_kernel (fun sys ->
         Samhita.System.subscribe sys first;
         Samhita.System.subscribe sys second)
      : Samhita.System.t);
  Alcotest.(check bool) "stream not empty" true (events1 () <> []);
  Alcotest.(check bool) "identical sequences" true (events1 () = events2 ())

let test_subscriber_after_spawn_rejected () =
  let sys = Samhita.System.create ~threads:1 () in
  ignore (Samhita.System.spawn sys (fun _ -> ()) : T.t);
  Alcotest.check_raises "subscribe after spawn"
    (Invalid_argument "System.subscribe: subscribe before spawning threads")
    (fun () -> Samhita.System.subscribe sys ignore)

(* RegCSan hears the stream through the same list as everyone else: a
   recorder beside it leaves its findings unchanged. *)
let test_regcsan_beside_recorder () =
  let config = { Samhita.Config.default with Samhita.Config.sanitize = true } in
  let findings subscribe =
    let sys = Workload.Racy.run ~on_create:subscribe ~config () in
    match Samhita.System.sanitizer sys with
    | Some s ->
      List.map
        (Format.asprintf "%a" Analysis.Regcsan.pp_finding)
        (Analysis.Regcsan.findings s)
    | None -> Alcotest.fail "sanitizer missing"
  in
  let alone = findings ignore in
  let record, _ = recorder () in
  Alcotest.(check int) "seeded defects found" 4 (List.length alone);
  Alcotest.(check (list string)) "same findings" alone
    (findings (fun sys -> Samhita.System.subscribe sys record))

(* ---------------- non-perturbation ---------------- *)

(* One kernel run at a fixed seed (schedule fuzzing and fault injection
   on, so many paths run), observed by RegCSan and/or the torture oracle.
   Returns everything the simulation produced: makespan, aggregate
   metrics and the kernel's checksum, bit for bit. *)
let observed_run kernel ~san ~oracle =
  let config =
    { Samhita.Config.default with
      Samhita.Config.sanitize = san;
      shuffle = true;
      seed = 11;
      fault_level = Fabric.Faults.Medium;
      memory_servers = 2 }
  in
  let sys = ref None in
  let on_create s =
    sys := Some s;
    if oracle then Torture.Oracle.attach (Torture.Oracle.create ~config ()) s
  in
  let backend = Workload.Samhita_backend.make ~on_create ~config () in
  let bits = Int64.bits_of_float in
  let checksum =
    match kernel with
    | `Micro ->
      let r =
        Workload.Microbench.run backend ~threads:3
          { Workload.Microbench.default_params with
            Workload.Microbench.n_outer = 3;
            m_inner = 2;
            s_rows = 2;
            b_cols = 24;
            alloc = Workload.Microbench.Global }
      in
      [ bits r.Workload.Microbench.gsum ]
    | `Jacobi ->
      let r =
        Workload.Jacobi.run backend ~threads:3
          { Workload.Jacobi.default_params with
            Workload.Jacobi.n = 12;
            iters = 3 }
      in
      [ bits r.Workload.Jacobi.checksum; bits r.Workload.Jacobi.residual ]
    | `Kv ->
      let r =
        Workload.Kv.run backend ~threads:3
          { Workload.Kv.default_params with
            Workload.Kv.traffic =
              { Workload.Kv.default_params.Workload.Kv.traffic with
                Workload.Traffic.requests = 60;
                seed = 11 } }
      in
      Array.to_list (Array.map Int64.of_int r.Workload.Kv.final_versions)
  in
  let sys = Option.get !sys in
  (Samhita.System.elapsed sys, Samhita.Metrics.of_system sys, checksum)

let test_non_perturbation kernel () =
  let plain = observed_run kernel ~san:false ~oracle:false in
  List.iter
    (fun (name, san, oracle) ->
       let makespan, metrics, checksum = observed_run kernel ~san ~oracle in
       let p_makespan, p_metrics, p_checksum = plain in
       Alcotest.(check int) (name ^ ": makespan")
         (Desim.Time.to_ns p_makespan) (Desim.Time.to_ns makespan);
       Alcotest.(check bool) (name ^ ": metrics") true (p_metrics = metrics);
       Alcotest.(check (list int64)) (name ^ ": checksum") p_checksum checksum)
    [ ("regcsan", true, false); ("oracle", false, true); ("both", true, true) ]

let tests =
  [ Alcotest.test_case "event kinds" `Quick test_event_kinds;
    Alcotest.test_case "timestamps monotone" `Quick
      test_events_timestamped_monotone;
    Alcotest.test_case "acquire actions visible" `Quick
      test_acquire_actions_visible;
    Alcotest.test_case "sync events carry ids" `Quick
      test_sync_events_carry_ids;
    Alcotest.test_case "sync timestamps monotone per tag" `Quick
      test_sync_events_monotone_per_tag;
    Alcotest.test_case "eviction flush reported" `Quick
      test_eviction_flush_reported;
    Alcotest.test_case "no subscriber by default" `Quick
      test_no_subscriber_by_default ]

let fanout =
  [ Alcotest.test_case "two subscribers hear one stream" `Quick
      test_two_subscribers_one_stream;
    Alcotest.test_case "subscribe after spawn rejected" `Quick
      test_subscriber_after_spawn_rejected;
    Alcotest.test_case "regcsan beside a recorder" `Quick
      test_regcsan_beside_recorder ]

let non_perturbation =
  [ Alcotest.test_case "micro" `Quick (test_non_perturbation `Micro);
    Alcotest.test_case "jacobi" `Quick (test_non_perturbation `Jacobi);
    Alcotest.test_case "kv" `Quick (test_non_perturbation `Kv) ]

let () =
  Alcotest.run "samhita.tracing"
    [ ("tracing", tests);
      ("fan-out", fanout);
      ("non-perturbation", non_perturbation) ]
