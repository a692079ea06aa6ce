(** Array-backed binary min-heap used as the simulator's event queue.

    Entries are ordered by [(time, prio, seq)]. The sequence number is
    assigned on insertion; by default [prio = seq], making the pop order of
    simultaneous events deterministic FIFO among equals. Installing a
    {!tie_break} hook replaces that default: the hook maps [(time, seq)] to
    a priority, permuting same-instant order (the schedule fuzzer's seeded
    shuffler) while [seq] still breaks priority collisions, so any hook
    yields a total, deterministic order.

    Storage is an unboxed parallel-arrays layout — three int arrays for
    the [(time, prio, seq)] keys plus one payload array — so {!push}
    allocates nothing and sift steps compare immediate ints. Because every
    key is unique ([seq] is), the drain order is a pure function of the
    pushed keys, independent of the heap's internal shape. One
    consequence of the layout: payload slots at indices >= [length] may
    retain a previously pushed payload (keeping it reachable) until the
    slot is overwritten by a later push; {!clear} drops the whole payload
    array. Intended payloads are small scheduler closures, for which this
    retention is negligible. *)

type 'a t

type tie_break = time:int -> seq:int -> int
(** Priority of an entry pushed at [time] with insertion number [seq].
    Must be a pure function so replaying a run reproduces it. *)

val create : ?initial_capacity:int -> ?tie_break:tie_break -> unit -> 'a t

val set_tie_break : 'a t -> tie_break option -> unit
(** Install ([Some]) or remove ([None]) the tie-break hook. Affects only
    subsequently pushed entries; callers switch modes between runs, not
    mid-drain. *)

val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> time:int -> 'a -> unit
(** Insert a payload keyed by [time]. O(log n). *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the entry with the smallest [(time, prio, seq)] key,
    as [(time, payload)]. O(log n). *)

val min_time : 'a t -> int
(** Time key of the entry {!take} would remove. Raises [Invalid_argument]
    on an empty heap. *)

val take : 'a t -> 'a
(** {!pop} without the result's option and pair: removes the minimal
    entry and returns its payload, allocating nothing. Read its time with
    {!min_time} first. Raises [Invalid_argument] on an empty heap. *)

val peek_time : 'a t -> int option
(** Time key of the next entry without removing it. *)

(** {2 Same-instant tie introspection (model-checker support)}

    RegCCheck drives the simulator through every same-instant scheduling
    choice: instead of letting [(prio, seq)] decide among simultaneous
    events, it inspects the tie group and pops a chosen member. Both
    operations are O(n) scans and are only used in checking mode, where
    event queues are small. *)

val tie_seqs : 'a t -> int array
(** Sequence numbers of every entry sharing the minimal time, in ascending
    [seq] (i.e. insertion) order — the candidate set of one scheduling
    choice point. Empty iff the heap is empty. With a deterministic
    execution prefix, re-running yields the same seqs, so an index into
    this array identifies the same event across re-executions. *)

val pop_tie : 'a t -> int -> int * 'a
(** [pop_tie t k] removes and returns the entry at index [k] of
    {!tie_seqs}' order (the [k]-th oldest entry of the minimal-time tie
    group). Raises [Invalid_argument] if [k] is out of range. *)

val clear : 'a t -> unit
