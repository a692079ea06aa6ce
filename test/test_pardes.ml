(* ParDES tests: the explicit-priority heap override, run_until under a
   quantum, the partitioned parallel engine's primitives, the
   domain-local diff scratch, and the domains knob end to end (config
   validation, kernels, serving harness). The load-bearing property
   everywhere: a parallel run's simulated results equal the sequential
   run's, field for field. *)

let ns = Desim.Time.ns

(* ------------------------------------------------------------------ *)
(* Heap: explicit priority *)

let drain h =
  let rec go acc =
    match Desim.Heap.pop h with
    | Some (t, v) -> go ((t, v) :: acc)
    | None -> List.rev acc
  in
  go []

(* Model of the heap's total order: time, then priority (explicit
   [?prio], else the push sequence number), then sequence number. *)
let prop_prio_model =
  QCheck.Test.make ~name:"pop order matches (time, prio, seq) sort"
    ~count:300
    QCheck.(list (pair (int_bound 20) (option (int_bound 5))))
    (fun items ->
       let h = Desim.Heap.create () in
       List.iteri
         (fun i (time, prio) -> Desim.Heap.push h ?prio ~time i)
         items;
       let model =
         List.mapi
           (fun i (time, prio) ->
              (time, (match prio with Some p -> p | None -> i), i))
           items
         |> List.sort compare
         |> List.map (fun (_, _, i) -> i)
       in
       List.map snd (drain h) = model)

let test_prio_beats_tie_break () =
  (* An explicit priority bypasses the installed tie-break hook; items
     without one still go through it (here: reverse insertion order). *)
  let h = Desim.Heap.create ~tie_break:(fun ~time:_ ~seq -> -seq) () in
  Desim.Heap.push h ~time:0 "a";
  Desim.Heap.push h ~time:0 "b";
  Desim.Heap.push h ~prio:(1 lsl 60) ~time:0 "drained";
  Alcotest.(check (list (pair int string)))
    "hook orders a/b, explicit prio sorts last"
    [ (0, "b"); (0, "a"); (0, "drained") ]
    (drain h)

(* ------------------------------------------------------------------ *)
(* run_until under a quantum *)

let test_run_until_quantum () =
  let e = Desim.Engine.create () in
  Desim.Engine.set_quantum e 100;
  let log = ref [] in
  let mark tag () =
    log := (tag, Desim.Time.to_ns (Desim.Engine.now e)) :: !log
  in
  Desim.Engine.schedule e ~delay:(ns 10) (mark "a");
  Desim.Engine.schedule e ~delay:(ns 110) (mark "b");
  Desim.Engine.schedule e ~delay:(ns 250) (mark "c");
  Desim.Engine.run_until e (Desim.Time.of_ns 200);
  Alcotest.(check (list (pair string int)))
    "instants round up to the quantum; horizon is inclusive"
    [ ("a", 100); ("b", 200) ]
    (List.rev !log);
  Alcotest.(check int) "clock parked exactly at the horizon" 200
    (Desim.Time.to_ns (Desim.Engine.now e));
  Desim.Engine.run_until e (Desim.Time.of_ns 1000);
  Alcotest.(check (pair string int))
    "the rounded tail event runs on the next call" ("c", 300)
    (List.hd !log);
  Alcotest.(check int) "empty queue still advances to the horizon" 1000
    (Desim.Time.to_ns (Desim.Engine.now e))

(* ------------------------------------------------------------------ *)
(* Parallel engine: primitives *)

let test_parallel_guards () =
  Alcotest.check_raises "domains must be >= 1"
    (Invalid_argument "Engine.create: domains must be >= 1") (fun () ->
      ignore (Desim.Engine.create ~domains:0 () : Desim.Engine.t));
  let need_lookahead = Desim.Engine.create ~domains:2 () in
  Desim.Engine.spawn need_lookahead (fun () -> ());
  Alcotest.check_raises "lookahead required"
    (Invalid_argument
       "Engine.run: a parallel run needs a positive lookahead \
        (Engine.set_lookahead)") (fun () ->
      Desim.Engine.run need_lookahead);
  let e = Desim.Engine.create ~domains:2 () in
  Desim.Engine.set_lookahead e (ns 10);
  Desim.Engine.set_quantum e 100;
  Alcotest.check_raises "quantum is sequential-only"
    (Invalid_argument "Engine.run: a quantum requires a single-domain engine")
    (fun () -> Desim.Engine.run e);
  Desim.Engine.set_quantum e 0;
  Alcotest.check_raises "run_until is sequential-only"
    (Invalid_argument "Engine.run_until: requires a single-domain engine")
    (fun () -> Desim.Engine.run_until e (Desim.Time.of_ns 100));
  Alcotest.check_raises "partition out of range"
    (Invalid_argument "Engine.spawn_on: partition out of range") (fun () ->
      Desim.Engine.spawn_on e ~part:3 (fun () -> ()))

(* One client process per partition, each hopping through delays and a
   hub region; every observation goes into that process's own ref cell,
   so the test itself is race-free by construction. *)
let run_partitioned () =
  let e = Desim.Engine.create ~domains:2 () in
  Desim.Engine.set_lookahead e (ns 25);
  let hub_hits = ref 0 in
  let log1 = ref [] and log2 = ref [] in
  let client log () =
    Desim.Engine.delay (ns 40);
    log := ("local", Desim.Time.to_ns (Desim.Engine.now e)) :: !log;
    let v =
      Desim.Engine.hub_run e (fun () ->
          incr hub_hits;
          Desim.Engine.delay (ns 30);
          Desim.Time.to_ns (Desim.Engine.now e))
    in
    log := ("hub", v) :: !log;
    Desim.Engine.delay (ns 5);
    log := ("done", Desim.Time.to_ns (Desim.Engine.now e)) :: !log
  in
  Desim.Engine.spawn_on e ~part:1 ~name:"c1" (client log1);
  Desim.Engine.spawn_on e ~part:2 ~delay:(ns 7) ~name:"c2" (client log2);
  Desim.Engine.run e;
  (List.rev !log1, List.rev !log2, !hub_hits)

let test_spawn_on_and_hub_run () =
  let log1, log2, hits = run_partitioned () in
  Alcotest.(check (list (pair string int)))
    "partition 1 timeline"
    [ ("local", 40); ("hub", 70); ("done", 75) ]
    log1;
  Alcotest.(check (list (pair string int)))
    "partition 2 timeline (offset by its spawn delay)"
    [ ("local", 47); ("hub", 77); ("done", 82) ]
    log2;
  Alcotest.(check int) "each client ran one hub region" 2 hits;
  (* Determinism: an identical parallel run observes identical times. *)
  let log1', log2', _ = run_partitioned () in
  Alcotest.(check bool) "repeat run identical" true
    (log1 = log1' && log2 = log2')

let test_hub_run_exception () =
  let e = Desim.Engine.create ~domains:2 () in
  Desim.Engine.set_lookahead e (ns 10);
  let caught = ref "" in
  Desim.Engine.spawn_on e ~part:1 (fun () ->
      Desim.Engine.delay (ns 5);
      try ignore (Desim.Engine.hub_run e (fun () -> failwith "boom") : int)
      with Failure m -> caught := m);
  Desim.Engine.run e;
  Alcotest.(check string) "hub exception re-raised at the caller" "boom"
    !caught

let test_remote_post () =
  let e = Desim.Engine.create ~domains:2 () in
  Desim.Engine.set_lookahead e (ns 10);
  let posted = ref [] in
  Desim.Engine.spawn_on e ~part:1 (fun () ->
      Desim.Engine.delay (ns 15);
      Desim.Engine.remote_post e (fun () -> posted := 1 :: !posted);
      Desim.Engine.delay (ns 15);
      Desim.Engine.remote_post e (fun () -> posted := 2 :: !posted));
  Desim.Engine.run e;
  Alcotest.(check (list int)) "hub-side posts ran in staging order" [ 1; 2 ]
    (List.rev !posted)

(* The same process program on a sequential and a parallel engine must
   observe the same simulated timeline. *)
let test_parallel_matches_sequential () =
  let program e record =
    List.iteri
      (fun i delays ->
         let cell = record i in
         let body () =
           List.iter
             (fun d ->
                Desim.Engine.delay (ns d);
                cell := Desim.Time.to_ns (Desim.Engine.now e) :: !cell)
             delays
         in
         let d = Desim.Engine.domains e in
         if d = 1 then Desim.Engine.spawn e body
         else Desim.Engine.spawn_on e ~part:((i mod d) + 1) body)
      [ [ 3; 11; 7 ]; [ 1; 1; 1; 40 ]; [ 13 ]; [ 2; 2; 9; 9 ]; [ 30; 4 ] ]
  in
  let run ~domains =
    let e = Desim.Engine.create ~domains () in
    if domains > 1 then Desim.Engine.set_lookahead e (ns 5);
    let cells = Array.init 5 (fun _ -> ref []) in
    program e (fun i -> cells.(i));
    Desim.Engine.run e;
    Array.map (fun c -> List.rev !c) cells
  in
  let seq = run ~domains:1 in
  Alcotest.(check bool) "2 domains: same per-process timelines" true
    (run ~domains:2 = seq);
  Alcotest.(check bool) "3 domains: same per-process timelines" true
    (run ~domains:3 = seq)

(* ------------------------------------------------------------------ *)
(* Diff scratch: one per domain via DLS *)

let test_diff_two_domains () =
  let cfg = Samhita.Config.default in
  let layout = Samhita.Layout.of_config cfg in
  let line_bytes = Samhita.Config.line_bytes cfg in
  let inputs seed =
    List.init 64 (fun i ->
        let twin = Bytes.make line_bytes '\000' in
        let current = Bytes.copy twin in
        (* Vary density and placement so scratch reuse sees spans of
           different counts and widths back to back. *)
        let stride = 8 * (1 + ((seed + i) mod 7)) in
        let j = ref ((seed + i) mod 16) in
        while !j * 8 < line_bytes - 8 do
          Bytes.set_int64_le current (!j * 8) (Int64.of_int (seed + !j));
          j := !j + (stride / 8)
        done;
        (twin, current))
  in
  let digest seed =
    let b = Buffer.create 4096 in
    List.iter
      (fun (twin, current) ->
         let d =
           Samhita.Diff.make layout ~line:0 ~twin ~current ~dirty_pages:1
         in
         let target = Bytes.make line_bytes '\xff' in
         Samhita.Diff.apply d target;
         Buffer.add_bytes b target)
      (inputs seed);
    Digest.string (Buffer.contents b)
  in
  let expected1 = digest 1 and expected2 = digest 2 in
  let d1 = Domain.spawn (fun () -> digest 1) in
  let d2 = Domain.spawn (fun () -> digest 2) in
  let got1 = Domain.join d1 and got2 = Domain.join d2 in
  Alcotest.(check string) "domain 1 diffs equal main-domain diffs"
    (Digest.to_hex expected1) (Digest.to_hex got1);
  Alcotest.(check string) "domain 2 diffs equal main-domain diffs"
    (Digest.to_hex expected2) (Digest.to_hex got2)

(* ------------------------------------------------------------------ *)
(* Config validation and system guards *)

let test_config_rejections () =
  let reject name config =
    match Samhita.Config.validate config with
    | Ok () -> Alcotest.failf "%s: expected a validation error" name
    | Error _ -> ()
  in
  let base = { Samhita.Config.default with Samhita.Config.domains = 2 } in
  reject "domains = 0"
    { Samhita.Config.default with Samhita.Config.domains = 0 };
  reject "sanitize" { base with Samhita.Config.sanitize = true };
  reject "shuffle" { base with Samhita.Config.shuffle = true };
  reject "crash_server"
    { base with Samhita.Config.crash_server = Some (0, 1000) };
  reject "home_migration" { base with Samhita.Config.home_migration = true };
  reject "manager_bypass" { base with Samhita.Config.manager_bypass = true };
  Alcotest.(check bool) "plain domains = 2 validates" true
    (Samhita.Config.validate base = Ok ())

let test_probe_rejected_parallel () =
  let config = { Samhita.Config.default with Samhita.Config.domains = 2 } in
  let sys = Samhita.System.create ~config ~threads:2 () in
  Alcotest.check_raises "probes are sequential-only"
    (Invalid_argument
       "System.set_probe: probes observe the global sequential schedule \
        and require domains = 1") (fun () ->
      Samhita.System.subscribe sys ignore)

(* ------------------------------------------------------------------ *)
(* Kernels and serving: parallel equals sequential, field for field *)

let micro_result ~domains =
  let config = { Samhita.Config.default with Samhita.Config.domains } in
  let b = Workload.Samhita_backend.make ~config () in
  Workload.Microbench.run b ~threads:8
    { Workload.Microbench.default_params with
      Workload.Microbench.m_inner = 4;
      alloc = Workload.Microbench.Global }

let test_micro_domains_equal () =
  let seq = micro_result ~domains:1 in
  let par = micro_result ~domains:2 in
  Alcotest.(check int) "wall_ns equal" seq.Workload.Microbench.wall_ns
    par.Workload.Microbench.wall_ns;
  Alcotest.(check bool) "whole result equal" true (seq = par)

let jacobi_result ~domains =
  let config = { Samhita.Config.default with Samhita.Config.domains } in
  let b = Workload.Samhita_backend.make ~config () in
  Workload.Jacobi.run b ~threads:4
    { Workload.Jacobi.default_params with Workload.Jacobi.n = 32; iters = 3 }

let test_jacobi_domains_equal () =
  let seq = jacobi_result ~domains:1 in
  let par = jacobi_result ~domains:3 in
  Alcotest.(check int) "wall_ns equal" seq.Workload.Jacobi.wall_ns
    par.Workload.Jacobi.wall_ns;
  Alcotest.(check (float 0.)) "checksum equal" seq.Workload.Jacobi.checksum
    par.Workload.Jacobi.checksum;
  Alcotest.(check bool) "whole result equal" true (seq = par)

let serving_sweep ~domains =
  Harness.Serving.run ~fractions:[ 0.5 ] ~domains ~backend:Harness.Serving.Smh
    ~threads:4 ~replication:0 ~crash:false
    { Workload.Kv.default_params with
      Workload.Kv.traffic =
        { Workload.Kv.default_params.Workload.Kv.traffic with
          Workload.Traffic.clients = 8;
          requests = 256;
          keys = 64;
          seed = 7 } }

let test_serving_domains_equal () =
  let seq = serving_sweep ~domains:1 in
  let par = serving_sweep ~domains:2 in
  Alcotest.(check (float 0.)) "capacity equal"
    seq.Harness.Serving.capacity_rps par.Harness.Serving.capacity_rps;
  Alcotest.(check bool) "sweep points equal" true
    (seq.Harness.Serving.points = par.Harness.Serving.points)

let test_serving_domain_guards () =
  let kv = Workload.Kv.default_params in
  Alcotest.check_raises "pth backend rejected"
    (Invalid_argument "Serving.run: domains > 1 needs the smh backend")
    (fun () ->
      ignore
        (Harness.Serving.run ~domains:2 ~backend:Harness.Serving.Pth
           ~threads:2 ~replication:0 ~crash:false kv
         : Harness.Serving.t));
  Alcotest.check_raises "crash rejected"
    (Invalid_argument "Serving.run: domains > 1 is incompatible with crash")
    (fun () ->
      ignore
        (Harness.Serving.run ~domains:2 ~backend:Harness.Serving.Smh
           ~threads:2 ~replication:1 ~crash:true kv
         : Harness.Serving.t))

let tests =
  [ Alcotest.test_case "prio beats tie-break" `Quick test_prio_beats_tie_break;
    Alcotest.test_case "run_until under quantum" `Quick test_run_until_quantum;
    Alcotest.test_case "parallel guards" `Quick test_parallel_guards;
    Alcotest.test_case "spawn_on + hub_run" `Quick test_spawn_on_and_hub_run;
    Alcotest.test_case "hub_run exception" `Quick test_hub_run_exception;
    Alcotest.test_case "remote_post" `Quick test_remote_post;
    Alcotest.test_case "parallel = sequential (engine)" `Quick
      test_parallel_matches_sequential;
    Alcotest.test_case "diff scratch across domains" `Quick
      test_diff_two_domains;
    Alcotest.test_case "config rejections" `Quick test_config_rejections;
    Alcotest.test_case "probe rejected when parallel" `Quick
      test_probe_rejected_parallel;
    Alcotest.test_case "micro: domains 1 = 2" `Quick test_micro_domains_equal;
    Alcotest.test_case "jacobi: domains 1 = 3" `Quick
      test_jacobi_domains_equal;
    Alcotest.test_case "serving: domains 1 = 2" `Quick
      test_serving_domains_equal;
    Alcotest.test_case "serving domain guards" `Quick
      test_serving_domain_guards;
    QCheck_alcotest.to_alcotest prop_prio_model ]

let () = Alcotest.run "pardes" [ ("pardes", tests) ]
