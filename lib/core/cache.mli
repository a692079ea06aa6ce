(** The per-thread software cache over the global address space.

    Every compute thread accesses the GAS through one of these (paper §II:
    "each compute thread has a local software cache ... populated by demand
    paging"). Entries are whole lines ([pages_per_line] pages). A line
    written in an ordinary region lazily gains a {e twin} (pristine copy)
    and per-page dirty bits, from which {!Diff.make} produces the flush
    payload at consistency points.

    The cache is pure bookkeeping: fetching, timing and protocol decisions
    live in {!Thread_ctx}. Eviction selection honours the paper's
    write-biased policy; actually flushing a dirty victim is the caller's
    job (the [evict] callback).

    Entries live on two intrusive doubly-linked chains (dirty and clean)
    tracking membership only; recency is the [tick] stamp, so the access
    path stays a single store. Victim selection scans one chain for the
    minimum tick instead of the whole table — the write-biased policy
    reads the (typically small) dirty chain first — and the dirty chain
    doubles as the maintained index behind {!dirty_entries}.

    {b Line buffers.} Line-sized buffers cycle through a small per-cache
    stack of spares instead of being allocated per fetch and per twin. A
    buffer from {!buffer} belongs to the caller until it hands it to
    {!insert}, {!try_install} or {!pending_complete}; from then on the
    cache owns it, as the entry's [data] or back on the stack if not
    installed. A twin belongs to its entry. Removing an entry (eviction,
    invalidation) returns its [data] and twin to the stack, and {!clean}
    returns the twin; the removed entry is poisoned ([line] = -1). *)

type entry = {
  mutable line : int;
      (** Set to -1 when the entry leaves the cache: a stale reference
          then matches no line. Read-only outside this module. *)
  data : bytes;
  mutable version : int;  (** Home version this copy corresponds to. *)
  mutable twin : bytes option;
  mutable dirty_pages : int;
      (** Bitmask over pages of the line. Mutate only through
          {!mark_written}/{!clean} — the LRU chains key on it. *)
  mutable tick : int;  (** Last-use stamp for LRU. *)
  mutable excl : bool;
      (** Sequential-consistency mode: held exclusive (sole writer). *)
  mutable lru_prev : entry;  (** Internal: intrusive LRU chain link. *)
  mutable lru_next : entry;  (** Internal: intrusive LRU chain link. *)
}
(** The chain links make entries cyclic values: compare entries with [==],
    never with polymorphic [=]. *)

type t

val create : Config.t -> Layout.t -> t

val no_entry : t -> entry
(** A placeholder entry (line [-1]) that is never resident: a caller
    keeping a last-used entry holds this instead of [None], so its
    comparison [e.line = line] fails without an option. Never pass it to
    any other function of this module. *)

val buffer : t -> bytes
(** A line-sized buffer to fetch into: a recycled spare, or a fresh
    allocation while the stack is empty. Its contents are unspecified. *)

val spares : t -> bytes list
(** The spare stack's buffers (for tests). *)

val capacity : t -> int
val size : t -> int

val find : t -> int -> entry option
(** Lookup by line id; refreshes LRU state. The single-entry fast path for
    repeated hits on one line lives in {!Thread_ctx}; this is the general
    path. *)

val find_exn : t -> int -> entry
(** [find] without the option: raises [Not_found] on a miss. The
    allocation-free variant for the per-access path in {!Thread_ctx};
    callers match the exception inline ([match ... with exception]). *)

val peek : t -> int -> entry option
(** Lookup without touching LRU state. *)

val insert :
  t -> line:int -> data:bytes -> version:int -> evict:(entry -> unit) ->
  entry
(** Install a fetched line, evicting a victim first when full. The [evict]
    callback sees the victim (possibly dirty — flush it) before removal.
    The buffer is owned by the cache afterwards. If the line turned out to
    be present already (an asynchronous prefetch completed while the caller
    was blocked fetching), the existing entry is returned and the new
    buffer recycled. The evicted victim is poisoned and its buffers
    recycled. *)

val ensure_room : t -> line:int -> evict:(entry -> unit) -> unit
(** Evict until inserting [line] would need no eviction (no-op when the
    line is already cached). The [evict] callback may yield; eviction
    repeats if the freed slot is taken meanwhile. Used by protocol drivers
    that must perform their subsequent state transitions atomically. *)

val try_install : t -> line:int -> data:bytes -> version:int -> bool
(** Install only if no eviction of a {e dirty} line would be needed (the
    asynchronous prefetch path, which runs outside any process and so
    cannot flush). Clean victims may be displaced (and are poisoned, so a
    caller's stale reference to one no longer matches its line). Returns
    [false] and recycles the data otherwise. *)

val mark_written : t -> entry -> offset:int -> len:int -> unit
(** Note an ordinary-region write to [entry]: creates the twin (a copy in
    a recycled buffer) on first write and sets the dirty bits of the
    touched pages. *)

val invalidate : t -> int -> unit
(** Drop a line (no flush — callers flush first when needed), poisoning
    its entry and recycling its buffers. Marks any in-flight prefetch of
    that line stale. *)

val dirty_entries : t -> entry list
(** All entries with dirty pages, ascending line id (deterministic flush
    order). *)

val entries : t -> entry list
(** Every resident entry, ascending line id (for end-of-run invariant
    checks: no twin or dirty bits may survive the final consistency
    point). *)

val clean : t -> entry -> version:int -> unit
(** After a successful flush: recycle the twin, drop the dirty bits,
    record the new home version. *)

(** {2 In-flight prefetch bookkeeping} *)

type arrival = (bytes * int) option
(** [Some (data, version)] on delivery; [None] when the prefetch was
    invalidated in flight and the waiter must demand-fetch. *)

val pending_start : t -> int -> bool
(** Mark a prefetch in flight for the line; [false] if one already is. *)

val is_pending : t -> int -> bool

val pending_wait : t -> int -> ((arrival -> unit) -> unit) option
(** If the line is in flight, returns a registrar the caller can hand its
    wake to ([Thread_ctx] suspends on it). *)

val pending_abort : t -> int -> unit
(** The in-flight prefetch will never deliver (its home crashed): drop the
    slot and wake any waiters with [None] so they demand-fetch. No-op when
    nothing is pending. *)

val pending_complete : t -> int -> data:bytes -> version:int -> unit
(** Prefetch delivery: wakes waiters (with [None] if stale) and, when there
    are no waiters and the line is fresh, installs via {!try_install}. A
    waiter woken with [Some (data, _)] owns [data] as if from {!buffer};
    otherwise the cache keeps or recycles it. *)

(** {2 Counters} *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int
val dirty_evictions : t -> int
val invalidations : t -> int
val prefetch_installs : t -> int
val note_hit : t -> unit
val note_miss : t -> unit
