(* The benchmark's view of a backend: the public [Backend_sig.S] a kernel
   already takes, reporting its lifecycle ([create], [run]) to a {!Tracer}
   as boundary crossings. At [Coarse] level it hands the kernel the
   backend's own accesses, so a timed pass pays nothing per access, and
   only counts sync calls for the tracer's checkpoints. [Count] also
   counts every operation and records the simulated duration of every
   sync call; [Fine] instead reports every thread call to the tracer
   (which counts them). *)

type level = Coarse | Count | Fine

module Make (B : Workload.Backend_sig.S) (X : sig
    val tr : Tracer.t
    val level : level
    val ops : int ref
    val sync_latency_ns : Harness.Percentile.t
  end) : Workload.Backend_sig.S = struct
  let tr = X.tr
  let name = B.name

  type system = B.system
  type thread = B.thread
  type mutex = B.mutex
  type barrier = B.barrier

  let create ~threads =
    Tracer.create_enter tr;
    let s = B.create ~threads in
    Tracer.create_exit tr;
    s

  let mutex = B.mutex
  let barrier = B.barrier
  let spawn = B.spawn

  let run s =
    Tracer.engine_enter tr;
    B.run s;
    Tracer.engine_exit tr

  let elapsed_ns = B.elapsed_ns
  let thread_id = B.thread_id
  let fiber t = B.thread_id t + 1

  let other f t x =
    let fiber = fiber t in
    Tracer.other_enter tr ~fiber;
    let r = f t x in
    Tracer.other_exit tr ~fiber;
    r

  let traced f = if X.level = Fine then f else Fun.id

  let malloc =
    traced (fun malloc t ~bytes -> other (fun t bytes -> malloc t ~bytes) t bytes)
      B.malloc

  let free =
    traced
      (fun free t ~addr ~bytes -> other (fun t addr -> free t ~addr ~bytes) t addr)
      B.free

  let charge_flops = traced (fun f t n -> other f t n) B.charge_flops
  let charge_mem_ops = traced (fun f t n -> other f t n) B.charge_mem_ops
  let idle_until = traced (fun f t at -> other f t at) B.idle_until
  let now_ns = traced (fun f t -> other (fun t () -> f t) t ()) B.now_ns
  let compute_ns = traced (fun f t -> other (fun t () -> f t) t ()) B.compute_ns
  let sync_ns = traced (fun f t -> other (fun t () -> f t) t ()) B.sync_ns
  let misses = traced (fun f t -> other (fun t () -> f t) t ()) B.misses

  let access f t x =
    let fiber = fiber t in
    Tracer.access_enter tr ~fiber ~misses:(B.misses t);
    let v = f t x in
    Tracer.access_exit tr ~fiber ~misses:(B.misses t);
    v

  let read_f64 =
    match X.level with
    | Coarse -> B.read_f64
    | Count -> fun t a -> incr X.ops; B.read_f64 t a
    | Fine -> access B.read_f64

  let write_f64 =
    match X.level with
    | Coarse -> B.write_f64
    | Count -> fun t a v -> incr X.ops; B.write_f64 t a v
    | Fine -> fun t a v -> access (fun t a -> B.write_f64 t a v) t a

  let timed f t x =
    let t0 = B.now_ns t in
    f t x;
    Harness.Percentile.add X.sync_latency_ns (B.now_ns t - t0)

  let sync f =
    match X.level with
    | Coarse -> fun t x -> f t x; Tracer.checkpoint tr
    | Count -> fun t x -> incr X.ops; timed f t x; Tracer.checkpoint tr
    | Fine ->
      fun t x ->
        let fiber = fiber t in
        Tracer.sync_enter tr ~fiber;
        timed f t x;
        Tracer.sync_exit tr ~fiber;
        Tracer.checkpoint tr

  let lock = sync B.lock
  let unlock = sync B.unlock
  let barrier_wait = sync B.barrier_wait
end

let make (backend : Workload.Backend_sig.backend) ~tr ~level ~ops
    ~sync_latency_ns : Workload.Backend_sig.backend =
  let module B = (val backend) in
  (module Make (B) (struct
       let tr = tr
       let level = level
       let ops = ops
       let sync_latency_ns = sync_latency_ns
     end))
