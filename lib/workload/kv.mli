(** A read-dominated key-value store served over the shared-memory
    system, driven by the open-loop {!Traffic} generator.

    Each key holds a version counter; a [Put] increments it under the
    key's shard mutex, a [Get] reads it under the same mutex (RegC, like
    Pthreads, only guarantees lock-protected data is fresh when read
    under its lock). Versions make correctness exactly checkable: after
    the run, key [k]'s counter must equal the number of [Put]s for [k] in
    the generated stream — an acknowledged write that a crash or
    promotion lost shows up as a shortfall — and the per-client sequence
    of observed versions supports read-your-writes and monotonic-reads
    session checks ({!Torture.Oracle.check_kv_history}).

    Requests are partitioned to serving workers by [client mod threads],
    so one client's requests are processed in issue order. Workers wait
    for each pre-drawn arrival with {!Backend_sig.S.idle_until}; when
    offered load exceeds capacity they fall behind and the recorded
    latency (completion minus arrival) grows with the queue. *)

type event = {
  e_client : int;
  e_key : int;
  e_op : Traffic.op;
  e_version : int;  (** Version read (Get) or written (Put). *)
}
(** One serviced request, in per-worker processing order (which embeds
    per-client program order). *)

type params = {
  traffic : Traffic.params;
  shards : int;  (** Mutex-protected key partitions ([key mod shards]). *)
  service_flops : int;
      (** Per-request CPU cost (parse/hash/dispatch) besides the value
          access itself. *)
}

val default_params : params

type result = {
  params : params;
  threads : int;
  wall_ns : int;
  served : int;
  latencies_ns : int array;
      (** Indexed like the generated request stream: completion minus
          arrival, queueing delay included. *)
  idle_ns : int;  (** Total worker time parked waiting for arrivals. *)
  final_versions : int array;  (** Per key, read back after serving. *)
  expected_versions : int array;  (** {!Traffic.puts_per_key}. *)
  history : event array;  (** Empty unless [record_history]. *)
}

module Make (B : Backend_sig.S) : sig
  val run : ?record_history:bool -> threads:int -> params -> result
end

val run :
  ?record_history:bool -> Backend_sig.backend -> threads:int -> params ->
  result

val lost_writes : result -> (int * int * int) list
(** Keys whose final version disagrees with the stream:
    [(key, expected, found)]. Empty iff no acked write was lost (and no
    phantom write appeared). *)
