type sync_op =
  | Lock_acquired of int
  | Unlock of int
  | Cond_signal of int
  | Cond_wake of int

type grant = Fresh | Patch of int | Notices of int

type event =
  | Read of {
      thread : int;
      time : Desim.Time.t;
      addr : int;
      len : int;
      value : int64 option;
    }
  | Write of {
      thread : int;
      time : Desim.Time.t;
      addr : int;
      len : int;
      value : int64 option;
      lock : int;
    }
  | Publish of {
      thread : int;
      time : Desim.Time.t;
      server : int;
      line : int;
      version : int;
      data : bytes;
    }
  | Malloc of { thread : int; time : Desim.Time.t; addr : int; bytes : int }
  | Free of { thread : int; time : Desim.Time.t; addr : int; bytes : int }
  | Barrier of {
      thread : int;
      time : Desim.Time.t;
      barrier : int;
      epoch : int;
      phase : [ `Arrive | `Depart ];
      notices : int;
    }
  | Sync of { thread : int; time : Desim.Time.t; op : sync_op }
  | Lock_attempt of { thread : int; time : Desim.Time.t; lock : int }
  | Grant of {
      thread : int;
      time : Desim.Time.t;
      lock : int;
      version : int;
      action : grant;
    }
  | Unlock_start of { thread : int; time : Desim.Time.t; lock : int }
  | Release of {
      thread : int;
      time : Desim.Time.t;
      lock : int;
      updates : int;
      lines : int;
    }
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
  | Crash of { time : Desim.Time.t; node : int; server : int }
  | Recovery of {
      time : Desim.Time.t;
      failed : int;
      promoted : int;
      replayed : int;
    }
  | Rejoin of {
      time : Desim.Time.t;
      zombie : int;
      primary : int;
      copied : int;
    }

type subscriber = event -> unit

let time = function
  | Read { time; _ } | Write { time; _ } | Publish { time; _ }
  | Malloc { time; _ } | Free { time; _ } | Barrier { time; _ }
  | Sync { time; _ } | Lock_attempt { time; _ } | Grant { time; _ }
  | Unlock_start { time; _ } | Release { time; _ } | Fetch { time; _ }
  | Evict_flush { time; _ } | Crash { time; _ } | Recovery { time; _ }
  | Rejoin { time; _ } ->
    time

let emit subs ev = List.iter (fun f -> f ev) subs

module San = Analysis.Regcsan

let regcsan s = function
  | Read { thread; time; addr; len; _ } ->
    San.on_read s ~thread ~time ~addr ~len
  | Write { thread; time; addr; len; lock; _ } ->
    San.on_write s ~thread ~time ~addr ~len ~lock
  | Malloc { thread; time; addr; bytes } ->
    San.on_malloc s ~thread ~time ~addr ~bytes
  | Free { thread; time; addr; bytes } ->
    San.on_free s ~thread ~time ~addr ~bytes
  | Lock_attempt { thread; time; lock } ->
    San.on_lock_attempt s ~thread ~time ~lock
  | Sync { thread; time; op = Lock_acquired lock } ->
    San.on_lock_acquired s ~thread ~time ~lock
  | Unlock_start { thread; time; lock } -> San.on_unlock s ~thread ~time ~lock
  | Barrier { thread; barrier; epoch; phase = `Arrive; _ } ->
    San.on_barrier_arrive s ~thread ~barrier ~epoch
  | Barrier { thread; barrier; epoch; phase = `Depart; _ } ->
    San.on_barrier_depart s ~thread ~barrier ~epoch
  | Sync { thread; op = Cond_signal cond; _ } ->
    San.on_cond_signal s ~thread ~cond
  | Sync { thread; op = Cond_wake cond; _ } -> San.on_cond_wake s ~thread ~cond
  | Sync { op = Unlock _; _ } | Publish _ | Grant _ | Release _ | Fetch _
  | Evict_flush _ | Crash _ | Recovery _ | Rejoin _ ->
    ()
