(* The three workloads and one pass of each.

   A pass runs the workload's kernels once through the public backends,
   checks every output against its reference, and collects the
   simulated figures and counters of every Samhita system it built.
   Simulated figures are deterministic: two passes of one process must
   report them identically. *)

type scale = Full | Tiny

type t = Jacobi | False_sharing | Kv_serve

let names = [ ("jacobi", Jacobi); ("false-sharing", False_sharing);
              ("kv-serve", Kv_serve) ]

let name w = fst (List.find (fun (_, w') -> w' = w) names)

(* What a pass observes. [sim] holds deterministic figures only. *)
type env = {
  tr : Tracer.t;
  level : Wrap.level;
  ops : int ref;  (** Backend operations, at [Count] level. *)
  sync_latency_ns : Harness.Percentile.t;
  mutable systems : Samhita.System.t list;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable sim : (string * float) list;
  mutable alloc_words : float;  (** Allocated inside kernel runs. *)
  mutable major_collections : int;  (** Completed inside kernel runs. *)
}

let new_env ?(stride_mask = max_int) level =
  { tr = Tracer.create ~spans:(level = Wrap.Fine) ~stride_mask;
    level;
    ops = ref 0;
    sync_latency_ns = Harness.Percentile.create ();
    systems = [];
    attempted = 0;
    failed = 0;
    errors = [];
    sim = [];
    alloc_words = 0.;
    major_collections = 0 }

let smh ?(config = Samhita.Config.default) env =
  Wrap.make ~tr:env.tr ~level:env.level ~ops:env.ops
    ~sync_latency_ns:env.sync_latency_ns
    (Workload.Samhita_backend.make ~config
       ~on_create:(fun s -> env.systems <- s :: env.systems)
       ())

(* Sync latencies of the baseline are not the DSM's: keep them apart. *)
let pth env =
  Wrap.make ~tr:env.tr ~level:env.level ~ops:env.ops
    ~sync_latency_ns:(Harness.Percentile.create ())
    Workload.Smp_backend.default

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* One kernel run between tracer boundaries, with its allocation. *)
let run env ~smp f =
  let words0 = allocated () in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  Tracer.run_start env.tr;
  Tracer.set_smp env.tr smp;
  let r = f () in
  Tracer.set_smp env.tr false;
  Tracer.run_end env.tr;
  env.alloc_words <- env.alloc_words +. allocated () -. words0;
  env.major_collections <-
    env.major_collections + (Gc.quick_stat ()).Gc.major_collections - majors0;
  r

let check env ~attempted ~failed what =
  env.attempted <- env.attempted + attempted;
  if failed > 0 then begin
    env.failed <- env.failed + failed;
    env.errors <- what :: env.errors
  end

let sim env name v = env.sim <- (name, v) :: env.sim

(* ------------------------------------------------------------------ *)
(* jacobi: Jacobi 512^2, 20 sweeps, P=8, on smh then pth. *)

let jacobi_setup = function
  | Full -> ({ Workload.Jacobi.n = 512; iters = 20; boundary = 1.0 }, 8)
  | Tiny -> ({ Workload.Jacobi.n = 32; iters = 3; boundary = 1.0 }, 4)

let jacobi env scale =
  let p, threads = jacobi_setup scale in
  let expected = fst (Workload.Jacobi.reference p) in
  let one backend ~smp label =
    let r =
      run env ~smp (fun () -> Workload.Jacobi.run (backend env) ~threads p)
    in
    let bad = if r.Workload.Jacobi.checksum = expected then 0 else 1 in
    check env ~attempted:1 ~failed:bad
      (Printf.sprintf "jacobi %s checksum %.17g, reference %.17g" label
         r.Workload.Jacobi.checksum expected);
    r.Workload.Jacobi.wall_ns
  in
  sim env "sim_ms" (float_of_int (one (fun e -> smh e) ~smp:false "smh") /. 1e6);
  sim env "pth.sim_ms" (float_of_int (one pth ~smp:true "pth") /. 1e6)

(* ------------------------------------------------------------------ *)
(* false-sharing: strided micro (Fig 5/10/11), P=32, M=1, B=32, S=2. *)

let micro_setup = function
  | Full ->
    ({ Workload.Microbench.n_outer = 2000; m_inner = 1; s_rows = 2;
       b_cols = 32; alloc = Global_strided; warmup = 1; decay = 0.999 }, 32)
  | Tiny ->
    ({ Workload.Microbench.n_outer = 10; m_inner = 1; s_rows = 2;
       b_cols = 32; alloc = Global_strided; warmup = 1; decay = 0.999 }, 4)

let micro_run ?threads env scale backend ~smp =
  let p, p_threads = micro_setup scale in
  let threads = Option.value threads ~default:p_threads in
  let r =
    run env ~smp (fun () -> Workload.Microbench.run (backend env) ~threads p)
  in
  let open Workload.Microbench in
  check env ~attempted:1 ~failed:(if r.gsum = r.expected_gsum then 0 else 1)
    (Printf.sprintf "false-sharing gsum %.17g, expected %.17g" r.gsum
       r.expected_gsum);
  r.wall_ns

let false_sharing env scale =
  sim env "sim_ms"
    (float_of_int (micro_run env scale (fun e -> smh e) ~smp:false) /. 1e6)

(* ------------------------------------------------------------------ *)
(* kv-serve: the serve defaults under open-loop Poisson traffic. *)

(* Offered rates (req/s) of the ladder the SLO rate is read from. The
   end-to-end latency figures are those at [kv_headline_rate]: the
   manager is busy enough there for its queueing to show in the tail
   (p99 about 4x p50), yet over 50k requests the p99 varies by only a
   few percent between traffic seeds; at 270k it varies by 8%. *)
let kv_rates = [ 150_000.; 210_000.; 270_000.; 330_000. ]
let kv_headline_rate = 210_000.
let kv_slo_p99_ns = 100_000
let kv_threads = 8

let kv_params scale ~seed =
  let requests = match scale with Full -> 50_000 | Tiny -> 2_000 in
  { Workload.Kv.default_params with
    traffic =
      { Workload.Kv.default_params.traffic with
        Workload.Traffic.requests;
        seed } }

let with_rate (p : Workload.Kv.params) rate_rps =
  { p with traffic = { p.traffic with Workload.Traffic.rate_rps } }

(* Two memory servers, as Harness.Serving uses for every smh point. *)
let kv_config = { Samhita.Config.default with memory_servers = 2 }

let kv_run env backend ~smp p =
  let r = run env ~smp (fun () -> Workload.Kv.run (backend env) ~threads:kv_threads p) in
  let open Workload.Kv in
  let requests = p.traffic.Workload.Traffic.requests in
  let lost =
    List.fold_left (fun acc (_, e, f) -> acc + abs (e - f)) 0 (lost_writes r)
  in
  check env ~attempted:requests ~failed:(requests - r.served + lost)
    (Printf.sprintf "kv at %.0f req/s: %d of %d served, %d lost writes"
       p.traffic.Workload.Traffic.rate_rps r.served requests lost);
  let est = Harness.Percentile.create () in
  Array.iter (Harness.Percentile.add est) r.latencies_ns;
  (r, est)

let kv_serve env scale ~seed =
  let p = kv_params scale ~seed in
  let smh e = smh ~config:kv_config e in
  (* Closed-loop capacity probe: every request has arrived at once. *)
  let probe, _ = kv_run env smh ~smp:false (with_rate p 1e12) in
  let wall = float_of_int probe.Workload.Kv.wall_ns in
  sim env "sim_ms" (wall /. 1e6);
  sim env "kv.capacity_rps" (float_of_int probe.Workload.Kv.served *. 1e9 /. wall);
  let slo = ref 0. in
  List.iter
    (fun rate ->
       let r, est = kv_run env smh ~smp:false (with_rate p rate) in
       let pct q = float_of_int (Harness.Percentile.percentile est q) /. 1e3 in
       let k = Printf.sprintf "%.0fk" (rate /. 1e3) in
       sim env ("kv.p50_us." ^ k) (pct 0.5);
       sim env ("kv.p99_us." ^ k) (pct 0.99);
       if rate = kv_headline_rate then begin
         sim env "sim_p50_us" (pct 0.5);
         sim env "sim_p99_us" (pct 0.99)
       end;
       let achieved =
         float_of_int r.Workload.Kv.served *. 1e9
         /. float_of_int r.Workload.Kv.wall_ns
       in
       if Harness.Percentile.percentile est 0.99 <= kv_slo_p99_ns
       && achieved >= 0.95 *. rate
       then slo := Float.max !slo rate)
    kv_rates;
  sim env "kv.slo_rps" !slo

(* ------------------------------------------------------------------ *)

(* The SMP-baseline run whose host cost [smp.ns_per_op] reports: part of
   the pass on jacobi, an extra run on the two workloads without one. *)
let pth_extra env scale ~seed = function
  | Jacobi -> ()
  | False_sharing ->
    (* The SMP node has 8 cores: the baseline runs the micro at P=8. *)
    ignore (micro_run env scale ~threads:8 pth ~smp:true : int)
  | Kv_serve ->
    let p = kv_params scale ~seed in
    ignore (kv_run env pth ~smp:true (with_rate p 1e12))

let pass env scale ~seed = function
  | Jacobi -> jacobi env scale
  | False_sharing -> false_sharing env scale
  | Kv_serve -> kv_serve env scale ~seed

(* Counters of every Samhita system the pass built, summed (the link
   figure is each system's busiest link). All are deterministic. *)
let system_counters env =
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0. env.systems in
  let fi = float_of_int in
  let ms span = fi span /. 1e6 in
  let threads f s =
    List.fold_left
      (fun acc c -> acc + f (Samhita.Metrics.of_ctx c))
      0 (Samhita.System.threads s)
  in
  let shards s =
    Array.to_list (Samhita.Control_plane.shards (Samhita.System.control_plane s))
  in
  let shard_sum f s =
    List.fold_left
      (fun acc m -> acc + f (Samhita.Manager_shard.service m)) 0 (shards s)
  in
  let server_sum f s =
    Array.fold_left (fun acc m -> acc + f m) 0 (Samhita.System.servers s)
  in
  let link_busy_max s =
    let net = Samhita.System.network s in
    let m = ref 0 in
    for n = 0 to Fabric.Network.node_count net - 1 do
      m := max !m (Fabric.Link.busy_time (Fabric.Network.tx_link net n));
      m := max !m (Fabric.Link.busy_time (Fabric.Network.rx_link net n))
    done;
    !m
  in
  let elapsed s = Desim.Time.to_ns (Samhita.System.elapsed s) in
  let agg f s = f (Samhita.Metrics.of_system s) in
  let manager_busy = sum (fun s -> fi (shard_sum Desim.Resource.busy_time s)) in
  [ ("cache.hits", sum (fun s -> fi (threads (fun m -> m.hits) s)));
    ("cache.misses", sum (fun s -> fi (threads (fun m -> m.misses) s)));
    ("cache.evictions", sum (fun s -> fi (threads (fun m -> m.evictions) s)));
    ("cache.invalidations",
     sum (fun s -> fi (threads (fun m -> m.invalidations) s)));
    ("manager.busy_ms", manager_busy /. 1e6);
    ("manager.jobs", sum (fun s -> fi (shard_sum Desim.Resource.jobs s)));
    ("manager.util",
     manager_busy
     /. sum (fun s -> fi (elapsed s * List.length (shards s))));
    ("server.fetches",
     sum (fun s -> fi (server_sum Samhita.Memory_server.fetches s)));
    ("server.diffs_applied",
     sum (fun s -> fi (server_sum Samhita.Memory_server.diffs_applied s)));
    ("server.updates_applied",
     sum (fun s -> fi (server_sum Samhita.Memory_server.updates_applied s)));
    ("server.busy_ms",
     sum (fun s ->
         ms (server_sum
               (fun m -> Desim.Resource.busy_time (Samhita.Memory_server.service m))
               s)));
    ("fabric.messages",
     sum (fun s -> fi (Fabric.Network.messages (Samhita.System.network s))));
    ("fabric.bytes",
     sum (fun s -> fi (Fabric.Network.bytes_carried (Samhita.System.network s))));
    ("fabric.link_busy_max_ms", sum (fun s -> ms (link_busy_max s)));
    ("desim.events", sum (fun s -> fi (Samhita.System.events s)));
    ("sim.compute_ms",
     sum (agg (fun a -> a.Samhita.Metrics.mean_compute_ns /. 1e6)));
    ("sim.sync_ms", sum (agg (fun a -> a.Samhita.Metrics.mean_sync_ns /. 1e6))) ]
