(** Simulated time.

    All simulation time is an integer number of nanoseconds since the start
    of the simulation. Spans (durations) share the representation. 63-bit
    integers give ~292 simulated years, far beyond any experiment here. *)

type t = private int
(** An absolute instant, in nanoseconds since simulation start. *)

type span = int
(** A duration in nanoseconds. Durations are plain ints so cost models can
    do arithmetic without friction. *)

val zero : t
val of_ns : int -> t
val to_ns : t -> int

val add : t -> span -> t
val diff : t -> t -> span
(** [diff a b] is [a - b] in nanoseconds. *)

val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool
val compare : t -> t -> int
val max : t -> t -> t

val ns : int -> span
val us : int -> span
val ms : int -> span
val s : int -> span

val span_of_float_ns : float -> span
(** Round a float nanosecond duration to the nearest integer span, never
    below zero. *)

(** The next three are {!span_of_float_ns} of a float computed here from
    its parts. A float handed to another module's function is boxed when
    cross-module inlining is off (dune's dev profile compiles with
    [-opaque]); these run on every transfer and synchronization, so they
    take the parts instead. *)

val span_of_bytes : bytes:int -> bytes_per_s:float -> span
(** Time to move [bytes] at [bytes_per_s]. *)

val span_of_units : units:int -> ns_per_unit:float -> span

val span_of_cell : floatarray -> span
(** Of element 0: a one-element accumulator. *)

val to_float_s : t -> float
val span_to_float_s : span -> float

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit (ns/us/ms/s). *)

val pp_span : Format.formatter -> span -> unit
