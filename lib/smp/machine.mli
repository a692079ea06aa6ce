(** The SMP node's physical memory and its MESI-flavoured coherence cost
    model.

    Data lives in one flat byte store (hardware shared memory really is
    one store). Per 64-byte line the model tracks which threads hold a
    copy and which one, if any, holds it modified, in two flat [int]
    arrays indexed by line number that grow with the store: a present
    bitmask of [0] is an untouched (cold) line. Each access is classified
    as a hit, cold miss, coherence miss or invalidating upgrade; the
    runtime charges the initiating core the class's {!Config} cost. State
    updates happen in program-issue order — the usual virtual-time-batching
    approximation, which is exact at synchronization granularity. An
    access past the end of the store raises [Invalid_argument] and records
    nothing. *)

type t

val create : Config.t -> t

val alloc : t -> bytes:int -> align:int -> int
(** Bump allocation; grows the store on demand (it is empty until the
    first allocation). *)

val used_bytes : t -> int

type access =
  | Hit
  | Cold  (** First copy in this thread's cache, from memory or a sharer. *)
  | Coherence  (** Supplied by another thread's modified copy. *)
  | Invalidate  (** Write upgrade invalidating other copies. *)

val read_class : t -> thread:int -> addr:int -> access
(** Account a read by [thread] of the line holding [addr]. *)

val write_class : t -> thread:int -> addr:int -> access

val cost_ns : Config.t -> access -> float
(** The nanosecond cost of an access class. *)

val read_cost : t -> thread:int -> addr:int -> float
(** [cost_ns] of [read_class]. *)

val write_cost : t -> thread:int -> addr:int -> float

val read_f64 : t -> int -> float
(** Raw data access (no costing). The runtime accesses the data before
    classifying, so an out-of-range access raises before any line state
    moves. *)

val write_f64 : t -> int -> float -> unit
val read_i64 : t -> int -> int64
val write_i64 : t -> int -> int64 -> unit

val coherence_misses : t -> int
val invalidations : t -> int
val cold_misses : t -> int
