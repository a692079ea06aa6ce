(* The KV serving kernel: exactness on both backends, history session
   checks (including that the oracle actually rejects tampered
   histories), and the torture sweeps of ISSUE record — 50 seeds clean,
   with and without crash injection. *)

let smh = Workload.Samhita_backend.default
let pth = Workload.Smp_backend.default

let small_p =
  { Workload.Kv.default_params with
    Workload.Kv.traffic =
      { Workload.Kv.default_params.Workload.Kv.traffic with
        Workload.Traffic.clients = 8;
        requests = 400;
        rate_rps = 400_000.;
        keys = 48 } }

let check_exact name backend threads =
  let r = Workload.Kv.run ~record_history:true backend ~threads small_p in
  Alcotest.(check (list (triple int int int)))
    (name ^ ": no lost or phantom writes")
    []
    (Workload.Kv.lost_writes r);
  Alcotest.(check int)
    (name ^ ": all requests served")
    400 r.Workload.Kv.served;
  Alcotest.(check int)
    (name ^ ": history complete")
    400
    (Array.length r.Workload.Kv.history);
  Array.iter
    (fun l ->
       Alcotest.(check bool) (name ^ ": latency positive") true (l > 0))
    r.Workload.Kv.latencies_ns;
  (* The history must satisfy the session guarantees. *)
  let oracle = Torture.Oracle.create ~config:Samhita.Config.default () in
  Torture.Oracle.check_kv_history oracle r.Workload.Kv.history;
  Alcotest.(check int)
    (name ^ ": session guarantees hold")
    0
    (List.length (Torture.Oracle.violations oracle))

let test_exact_pth () = List.iter (check_exact "pth" pth) [ 1; 2; 4 ]
let test_exact_smh () = List.iter (check_exact "smh" smh) [ 1; 3; 4 ]

let test_determinism () =
  let run () = Workload.Kv.run ~record_history:true smh ~threads:3 small_p in
  let a = run () and b = run () in
  Alcotest.(check bool) "same latencies" true
    (a.Workload.Kv.latencies_ns = b.Workload.Kv.latencies_ns);
  Alcotest.(check bool) "same history" true
    (a.Workload.Kv.history = b.Workload.Kv.history);
  Alcotest.(check int) "same wall" a.Workload.Kv.wall_ns b.Workload.Kv.wall_ns

(* The serving harness and the benchmark feed their estimators from
   [latencies_ns] after the run. *)
let test_latency_feed () =
  let est = Harness.Percentile.create () in
  let r = Workload.Kv.run smh ~threads:2 small_p in
  Array.iter (Harness.Percentile.add est) r.Workload.Kv.latencies_ns;
  Alcotest.(check int) "one sample per request" r.Workload.Kv.served
    (Harness.Percentile.count est);
  Alcotest.(check bool) "p50 <= p999" true
    (Harness.Percentile.percentile est 0.5
     <= Harness.Percentile.percentile est 0.999)

(* ---------------- oracle negative tests ---------------- *)

let ev client key op version =
  { Workload.Kv.e_client = client; e_key = key; e_op = op; e_version = version }

let violations_of history =
  let oracle = Torture.Oracle.create ~config:Samhita.Config.default () in
  Torture.Oracle.check_kv_history oracle (Array.of_list history);
  List.map
    (fun v -> v.Torture.Oracle.v_class)
    (Torture.Oracle.violations oracle)

let test_oracle_accepts_clean () =
  Alcotest.(check (list string)) "clean history" []
    (violations_of
       [ ev 0 1 Workload.Traffic.Put 1;
         ev 0 1 Workload.Traffic.Get 1;
         ev 1 1 Workload.Traffic.Put 2;
         ev 0 1 Workload.Traffic.Get 2;
         ev 1 2 Workload.Traffic.Get 0 ])

let test_oracle_rejects_lost_own_write () =
  Alcotest.(check (list string)) "read-your-writes violation"
    [ "kv-read-your-writes"; "kv-monotonic-reads" ]
    (violations_of
       [ ev 0 5 Workload.Traffic.Get 3;
         ev 0 5 Workload.Traffic.Put 4;
         ev 0 5 Workload.Traffic.Get 2 ])

let test_oracle_rejects_backwards_read () =
  Alcotest.(check (list string)) "monotonic-reads violation"
    [ "kv-monotonic-reads" ]
    (violations_of
       [ ev 2 7 Workload.Traffic.Get 9; ev 2 7 Workload.Traffic.Get 8 ])

let test_oracle_scopes_per_client () =
  (* Another client observing older state is not a session violation. *)
  Alcotest.(check (list string)) "cross-client staleness is legal" []
    (violations_of
       [ ev 0 3 Workload.Traffic.Put 4; ev 1 3 Workload.Traffic.Get 1 ])

(* ---------------- torture sweeps ---------------- *)

let sweep ~crash =
  Torture.Runner.run ~crash ~kernel:Torture.Runner.Kv
    ~level:Fabric.Faults.High ~seeds:50 ~base_seed:1 ()

let test_torture_sweep () =
  let s = sweep ~crash:false in
  Alcotest.(check int) "50 seeds clean" 0
    (List.length s.Torture.Runner.s_failures);
  Alcotest.(check bool) "reads were checked (not vacuous)" true
    (s.Torture.Runner.s_reads_checked > 0)

let test_torture_sweep_crash () =
  (* The acceptance sweep of ISSUE: 50 crash seeds, all clean — i.e. no
     acked write lost and no session-guarantee violation across any
     lease-detected promotion. *)
  let s = sweep ~crash:true in
  Alcotest.(check int) "50 crash seeds clean" 0
    (List.length s.Torture.Runner.s_failures);
  Alcotest.(check bool) "promotions actually happened" true
    (s.Torture.Runner.s_promotions > 0)

let test_validation () =
  Alcotest.check_raises "threads" (Invalid_argument "Kv.run: threads")
    (fun () -> ignore (Workload.Kv.run pth ~threads:0 small_p));
  Alcotest.check_raises "shards" (Invalid_argument "Kv.run: shards")
    (fun () ->
       ignore
         (Workload.Kv.run pth ~threads:1
            { small_p with Workload.Kv.shards = 0 }))

let tests =
  [ Alcotest.test_case "exact on pthreads" `Quick test_exact_pth;
    Alcotest.test_case "exact on samhita" `Quick test_exact_smh;
    Alcotest.test_case "deterministic per seed" `Quick test_determinism;
    Alcotest.test_case "latency feed" `Quick test_latency_feed;
    Alcotest.test_case "oracle accepts clean history" `Quick
      test_oracle_accepts_clean;
    Alcotest.test_case "oracle rejects lost own write" `Quick
      test_oracle_rejects_lost_own_write;
    Alcotest.test_case "oracle rejects backwards read" `Quick
      test_oracle_rejects_backwards_read;
    Alcotest.test_case "oracle scopes per client" `Quick
      test_oracle_scopes_per_client;
    Alcotest.test_case "torture 50 seeds" `Slow test_torture_sweep;
    Alcotest.test_case "torture 50 seeds with crash" `Slow
      test_torture_sweep_crash;
    Alcotest.test_case "validation" `Quick test_validation ]

let () = Alcotest.run "kv" [ ("kv", tests) ]
