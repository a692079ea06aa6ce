(* Every metric the benchmark emits, with its unit and direction.
   BENCHMARK.json lists the same metrics; the benchmark's tests check
   that the two agree and that a run emits exactly these names. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;  (** End-to-end only: allowed relative worsening. *)
}

let m ?(bound = 0.) name unit_ better = { name; unit_; better; bound }

(* Reported from untraced passes (--trace 0). Simulated figures carry
   "sim-" units: they are deterministic virtual time, not host time. *)
let end_to_end =
  [ m "host_s" "s" Lower ~bound:0.25;
    m "sim_ops_per_s" "1/s" Higher ~bound:0.25;
    m "setup_s" "s" Lower ~bound:0.25;
    m "heap_peak_mb" "MiB" Lower ~bound:0.1;
    m "alloc_words_per_op" "words/op" Lower ~bound:0.05;
    m "sim_ms" "sim-ms" Lower ~bound:0.05;
    m "sim_p50_us" "sim-us" Lower ~bound:0.1;
    m "sim_p99_us" "sim-us" Lower ~bound:0.1 ]

(* Reported from the traced pass (--trace 1). The layer self times
   ([*_ns], [setup.*_s]) add up to [trace.wall_ns]. *)
let per_layer =
  [ m "workload.self_ns_per_op" "ns/op" Lower;
    m "workload.self_ns" "ns" Lower;
    m "thread_ctx.hit_calls" "count" Higher;
    m "thread_ctx.hit_ns" "ns" Lower;
    m "miss.calls" "count" Lower;
    m "miss.ns" "ns" Lower;
    m "sync.calls" "count" Lower;
    m "sync.ns" "ns" Lower;
    m "backend.other_ns" "ns" Lower;
    m "desim.run_ns" "ns" Lower;
    m "smp.self_ns" "ns" Lower;
    m "harness.self_ns" "ns" Lower;
    m "setup.traffic_s" "s" Lower;
    m "setup.create_s" "s" Lower;
    m "trace.wall_ns" "ns" Lower;
    m "trace.overhead_s" "s" Lower;
    m "cache.hits" "count" Higher;
    m "cache.misses" "count" Lower;
    m "cache.evictions" "count" Lower;
    m "cache.invalidations" "count" Lower;
    m "manager.busy_ms" "sim-ms" Lower;
    m "manager.jobs" "count" Lower;
    m "manager.util" "ratio" Lower;
    m "server.fetches" "count" Lower;
    m "server.diffs_applied" "count" Lower;
    m "server.updates_applied" "count" Lower;
    m "server.busy_ms" "sim-ms" Lower;
    m "fabric.messages" "count" Lower;
    m "fabric.bytes" "B" Lower;
    m "fabric.link_busy_max_ms" "sim-ms" Lower;
    m "desim.events" "count" Lower;
    m "desim.ns_per_event" "ns/event" Lower;
    m "smp.ns_per_op" "ns/op" Lower;
    m "gc.minor_words_per_op" "words/op" Lower;
    m "gc.major_collections" "count" Lower;
    m "sim.compute_ms" "sim-ms" Lower;
    m "sim.sync_ms" "sim-ms" Lower ]

(* Layer self times, as [(metric, ns per unit of the metric)]. *)
let self_time_parts =
  [ ("workload.self_ns", 1.); ("thread_ctx.hit_ns", 1.); ("miss.ns", 1.);
    ("sync.ns", 1.); ("backend.other_ns", 1.); ("desim.run_ns", 1.);
    ("smp.self_ns", 1.); ("harness.self_ns", 1.); ("setup.traffic_s", 1e9);
    ("setup.create_s", 1e9) ]

let better_name = function Lower -> "lower" | Higher -> "higher"

let find name =
  List.find (fun x -> x.name = name) (end_to_end @ per_layer)
