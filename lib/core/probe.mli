(** The observer stream: one typed event for everything the runtime
    reports to its observers ({!System.subscribe}).

    RegCSan ({!regcsan}), the torture oracle, RegCCheck's footprint
    recorder and test recorders are all plain {!subscriber}s. They hear
    every global-memory access (with the value for 8-byte word accesses),
    every {e publication} — a home-side merge of a flushed diff or update
    log, the instant a value becomes RegC-visible to other threads —
    every allocation event, every barrier episode, every lock/condvar
    edge, the protocol's fetches, grants and releases, and the failure
    detector's crash, recovery and rejoin decisions.

    Events are delivered synchronously inside the emitting thread's
    process, in deterministic simulation order, to the subscribers in
    subscription order; a stream is replayable and hashable. [data]
    buffers in {!Publish} are {e borrowed} (the home's live line) — copy
    before retaining. With no subscriber the runtime pays one branch per
    emit site and builds no event.

    A lock release is reported at two points: {!Unlock_start} before the
    release flush (RegCSan's release edge) and [Sync (Unlock _)] after the
    shard's ack. An acquire likewise has {!Lock_attempt} before the
    request, {!Grant} when the grant arrives and [Sync (Lock_acquired _)]
    once it is applied. *)

type sync_op =
  | Lock_acquired of int
  | Unlock of int
  | Cond_signal of int
  | Cond_wake of int

type grant =
  | Fresh  (** First acquire of the lock, or nothing to integrate. *)
  | Patch of int  (** The holder's update log, by update count. *)
  | Notices of int  (** Version-based invalidation, by line count. *)

type event =
  | Read of {
      thread : int;
      time : Desim.Time.t;
      addr : int;
      len : int;
      value : int64 option;
          (** [Some] for aligned 8-byte accesses, [None] for bulk or
              sub-word reads. *)
    }
  | Write of {
      thread : int;
      time : Desim.Time.t;
      addr : int;
      len : int;
      value : int64 option;
      lock : int;
          (** Innermost held mutex — the consistency region the store
              belongs to — or [-1] for an ordinary write. *)
    }
  | Publish of {
      thread : int;  (** [-1] for recovery replay and home migration. *)
      time : Desim.Time.t;
      server : int;
      line : int;
      version : int;
      data : bytes;  (** Borrowed: the home's live line. *)
    }
  | Malloc of { thread : int; time : Desim.Time.t; addr : int; bytes : int }
  | Free of { thread : int; time : Desim.Time.t; addr : int; bytes : int }
  | Barrier of {
      thread : int;
      time : Desim.Time.t;
      barrier : int;
      epoch : int;
          (** Captured before arriving: every participant of one episode
              names the same epoch. *)
      phase : [ `Arrive | `Depart ];
      notices : int;  (** Write notices delivered; 0 on arrival. *)
    }
  | Sync of { thread : int; time : Desim.Time.t; op : sync_op }
  | Lock_attempt of { thread : int; time : Desim.Time.t; lock : int }
      (** Before the acquire request leaves the thread. *)
  | Grant of {
      thread : int;
      time : Desim.Time.t;
      lock : int;
      version : int;
      action : grant;
    }
      (** The shard's grant arrived; fires before it is applied. *)
  | Unlock_start of { thread : int; time : Desim.Time.t; lock : int }
      (** Before the release flushes the region's update log. *)
  | Release of {
      thread : int;
      time : Desim.Time.t;
      lock : int;
      updates : int;
      lines : int;
    }
      (** The shard recorded the release (before its ack travels back). *)
  | Fetch of {
      thread : int;
      time : Desim.Time.t;
      line : int;
      version : int;
      server : int;
    }
  | Evict_flush of {
      thread : int;
      time : Desim.Time.t;
      line : int;
      bytes : int;
      version : int;
    }
      (** An eviction flushed a dirty line's diff ([bytes] of payload). *)
  | Crash of { time : Desim.Time.t; node : int; server : int }
      (** The lease monitor detected that fabric node [node] (hosting
          memory server [server]) is fail-stop dead, at least one missed
          heartbeat after the crash instant. *)
  | Recovery of {
      time : Desim.Time.t;
      failed : int;
      promoted : int;
      replayed : int;
    }
      (** Physical server [failed]'s stripes now live on [promoted],
          after replaying [replayed] surviving update-log entries. *)
  | Rejoin of {
      time : Desim.Time.t;
      zombie : int;
      primary : int;
      copied : int;
    }
      (** A falsely suspected server rejoined after its partition healed:
          [zombie] was resynced ([copied] lines) against [primary]. *)

type subscriber = event -> unit

val time : event -> Desim.Time.t

val emit : subscriber list -> event -> unit
(** Deliver to every subscriber, in list order. *)

val regcsan : Analysis.Regcsan.t -> subscriber
(** Feed RegCSan its access stream and synchronization edges; every other
    event is ignored. {!System.create} subscribes this first when
    [Config.sanitize] is set. *)
