(* Per-seed torture outcomes over the kernel x failure-mode matrix. The
   oracle's digest folds every event it observes together with its
   instant, so an unchanged line means the observer stream kept its
   content and order; the event count and makespan pin the rest.

     dune exec test/golden/observers/digests.exe *)

let modes =
  [ ("plain", false, false, false);
    ("crash", true, false, false);
    ("crash-shard", false, true, false);
    ("partition", false, false, true) ]

let () =
  List.iter
    (fun kernel ->
       List.iter
         (fun (mode, crash, crash_shard, partition) ->
            (* racy pins per-class defect counts; the CLI rejects it
               under a shard crash or a partition. *)
            if not (kernel = Torture.Runner.Racy && (crash_shard || partition))
            then
              for seed = 1 to 3 do
                let o =
                  Torture.Runner.run_one ~crash ~crash_shard ~partition ~kernel
                    ~level:Fabric.Faults.High ~seed ()
                in
                Printf.printf "%s %s seed=%d digest=%d events=%d wall_ns=%d\n"
                  (Torture.Runner.kernel_name kernel)
                  mode seed o.Torture.Runner.o_digest o.Torture.Runner.o_events
                  o.Torture.Runner.o_wall_ns
              done)
         modes)
    Torture.Runner.[ Micro; Jacobi; Kv; Racy ]
