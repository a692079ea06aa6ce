type chooser = time:int -> seqs:int array -> int

(* ------------------------------------------------------------------ *)
(* ParDES: conservative parallel partitions.

   A parallel engine ([domains >= 2]) splits the simulation into one hub
   partition (index 0) plus [domains] client partitions (1..domains),
   each with its own event heap and local clock. The hub owns every
   shared simulated object (fabric links, memory servers, manager
   shards); clients own the per-thread state of the simulated threads
   assigned to them. Client partitions run their events concurrently on
   OCaml domains; hub events run serially on the main domain while the
   clients are paused, so hub code may touch client-owned state (and
   vice versa never concurrently). The alternation bound is conservative
   CMB-style: clients only execute events strictly below
   [min (next hub event + 1, min client horizon + lookahead)], where the
   lookahead is the fabric's minimum cross-node latency — so no hub
   event can ever wake a client in its executed past. *)

type part = {
  p_queue : (unit -> unit) Heap.t;
  mutable p_now : Time.t;
  mutable p_live : int;  (* processes spawned here and not yet finished *)
  p_names : (int, string) Hashtbl.t;
  mutable p_next_pid : int;
  mutable p_events : int;
  (* Cross-partition messages staged by this partition's client pass,
     drained into the hub heap by the main thread at the pass barrier.
     Entries are [(time_ns, thunk)]; the thunk runs in hub context. *)
  p_outbox : (int * (unit -> unit)) Queue.t;
}

type t = {
  mutable now : Time.t;
  queue : (unit -> unit) Heap.t;
  mutable live : int;  (* processes spawned and not yet finished *)
  (* Names of live processes, keyed by spawn id, so a stall can say who is
     blocked rather than just how many. *)
  names : (int, string) Hashtbl.t;
  mutable next_pid : int;
  (* Controlled scheduler (model-checker support): when installed, every
     pop with two or more same-instant candidates asks the chooser which
     one runs, instead of letting the [(prio, seq)] tie order decide. *)
  mutable chooser : chooser option;
  (* Scheduling quantum in ns (0 = off): event instants round up to the
     next multiple, so events staggered only by sub-quantum serialization
     deltas land on the same instant and become explicit ties. Only the
     model checker sets this; default runs keep exact timing. *)
  mutable quantum : int;
  (* ParDES state; [parts = [||]] and the hub fields above are the whole
     engine when [domains = 1] (the default, sequential mode). *)
  domains : int;
  parts : part array;  (* client partitions 1..domains, at index - 1 *)
  mutable lookahead : int;  (* ns; conservative min cross-node latency *)
  mutable events : int;  (* events executed on the hub / sequentially *)
  mutable drain_seq : int;  (* total order over drained outbox entries *)
}

exception Stalled of string

type _ Effect.t +=
  | Delay : Time.span -> unit Effect.t
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t

let shuffle_tie_break ~seed : Heap.tie_break =
 fun ~time ~seq -> Rng.hash3 seed time seq

(* The partition the executing domain is currently driving. Only
   consulted when [domains >= 2]; maintained by the pass loops (clients)
   and the hub pass (0). The main domain also holds 0 outside runs, so
   setup-phase scheduling lands on the hub. *)
let cur_key = Domain.DLS.new_key (fun () -> 0)
let cur () = Domain.DLS.get cur_key
let set_cur p = Domain.DLS.set cur_key p

let create ?tie_break ?(domains = 1) () =
  if domains < 1 then invalid_arg "Engine.create: domains must be >= 1";
  set_cur 0;
  { now = Time.zero;
    queue = Heap.create ?tie_break ();
    live = 0;
    names = Hashtbl.create 16;
    next_pid = 0;
    chooser = None;
    quantum = 0;
    domains;
    parts =
      (if domains = 1 then [||]
       else
         Array.init domains (fun _ ->
             { p_queue = Heap.create ?tie_break ();
               p_now = Time.zero;
               p_live = 0;
               p_names = Hashtbl.create 16;
               p_next_pid = 0;
               p_events = 0;
               p_outbox = Queue.create () }));
    lookahead = 0;
    events = 0;
    drain_seq = 0 }

let set_chooser t c = t.chooser <- c

let set_quantum t q =
  if q < 0 then invalid_arg "Engine.set_quantum: negative quantum";
  t.quantum <- q

let domains t = t.domains

let set_lookahead t la =
  if la < 0 then invalid_arg "Engine.set_lookahead: negative lookahead";
  t.lookahead <- la

let events t =
  Array.fold_left (fun acc p -> acc + p.p_events) t.events t.parts

(* Event queue and clock of the partition the caller is running on. *)
let local_queue t =
  if t.domains = 1 then t.queue
  else match cur () with 0 -> t.queue | p -> t.parts.(p - 1).p_queue

let local_now t =
  if t.domains = 1 then t.now
  else match cur () with 0 -> t.now | p -> t.parts.(p - 1).p_now

let now t = local_now t

let schedule_at t at thunk =
  let pnow = local_now t in
  if Time.( < ) at pnow then
    invalid_arg "Engine.schedule_at: instant is in the simulated past";
  let time = Time.to_ns at in
  let time =
    (* Round future instants up to the quantum grid. The current instant
       stays exact so yields and same-instant wake chains still run before
       time advances; rounding up never schedules into the past. *)
    if t.quantum > 1 && Time.( < ) pnow at && time mod t.quantum <> 0 then
      ((time / t.quantum) + 1) * t.quantum
    else time
  in
  Heap.push (local_queue t) ~time thunk

let schedule t ?(delay = 0) thunk =
  let delay = if delay < 0 then 0 else delay in
  schedule_at t (Time.add (local_now t) delay) thunk

(* Deliver a wake for a process homed on partition [home]. Same-partition
   wakes are ordinary local schedules. A hub event waking a parked client
   fiber pushes straight into the client's heap: clients are paused while
   hub events run, and the conservative bound guarantees the hub's clock
   is never behind any executed client event. A client waking a hub fiber
   rides its outbox. Client-to-other-client wakes would be a protocol
   violation (all cross-thread interaction is hub-mediated) and fail
   loudly. *)
let wake_home t home thunk =
  if t.domains = 1 then schedule t thunk
  else begin
    let c = cur () in
    if c = home then schedule t thunk
    else if c = 0 then begin
      let p = t.parts.(home - 1) in
      if Time.( < ) t.now p.p_now then
        failwith
          "Engine: conservative bound violated (hub wake in a client's past)";
      Heap.push p.p_queue ~time:(Time.to_ns t.now) thunk
    end
    else if home = 0 then
      Queue.add
        (Time.to_ns t.parts.(c - 1).p_now, thunk)
        t.parts.(c - 1).p_outbox
    else
      failwith "Engine: cross-partition wake between client partitions"
  end

(* Run [body] under the effect handler that maps Delay/Suspend onto the
   event queue. Continuations are one-shot; Suspend guards against double
   wake so synchronization primitives may broadcast defensively. [pidx]
   is the partition the process lives on (0 in sequential mode);
   continuations never migrate partitions. *)
let exec_process t pidx pid body =
  let open Effect.Deep in
  let finished () =
    if pidx = 0 then begin
      t.live <- t.live - 1;
      Hashtbl.remove t.names pid
    end
    else begin
      let p = t.parts.(pidx - 1) in
      p.p_live <- p.p_live - 1;
      Hashtbl.remove p.p_names pid
    end
  in
  let handler =
    { retc = (fun () -> finished ());
      exnc = (fun exn -> finished (); raise exn);
      effc =
        (fun (type a) (eff : a Effect.t) ->
           match eff with
           | Delay d ->
             Some
               (fun (k : (a, unit) continuation) ->
                  schedule t ~delay:d (fun () -> continue k ()))
           | Suspend register ->
             Some
               (fun (k : (a, unit) continuation) ->
                  let home = if t.domains = 1 then 0 else cur () in
                  let woken = ref false in
                  let wake v =
                    if not !woken then begin
                      woken := true;
                      wake_home t home (fun () -> continue k v)
                    end
                  in
                  register wake)
           | _ -> None);
    }
  in
  match_with body () handler

let spawn_on t ~part ?(delay = 0) ?(name = "process") body =
  if t.domains = 1 || part = 0 then begin
    let pid = t.next_pid in
    t.next_pid <- pid + 1;
    t.live <- t.live + 1;
    Hashtbl.replace t.names pid name;
    schedule t ~delay (fun () -> exec_process t 0 pid body)
  end
  else begin
    if part < 0 || part > t.domains then
      invalid_arg "Engine.spawn_on: partition out of range";
    let p = t.parts.(part - 1) in
    let pid = p.p_next_pid in
    p.p_next_pid <- pid + 1;
    p.p_live <- p.p_live + 1;
    Hashtbl.replace p.p_names pid name;
    let delay = if delay < 0 then 0 else delay in
    Heap.push p.p_queue
      ~time:(Time.to_ns (Time.add p.p_now delay))
      (fun () -> exec_process t part pid body)
  end

let spawn t ?(delay = 0) ?(name = "process") body =
  let part = if t.domains = 1 then 0 else cur () in
  spawn_on t ~part ~delay ~name body

let blocked_names t =
  let of_tbl names =
    Hashtbl.fold (fun pid name acc -> (pid, name) :: acc) names []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd
  in
  of_tbl t.names
  @ List.concat_map (fun p -> of_tbl p.p_names) (Array.to_list t.parts)

let step t =
  match t.chooser with
  | None -> (
      match Heap.pop t.queue with
      | None -> false
      | Some (time, thunk) ->
        t.now <- Time.of_ns time;
        t.events <- t.events + 1;
        thunk ();
        true)
  | Some choose -> (
      (* Controlled mode: same-instant ties are a scheduling choice point;
         singletons run directly so the chooser only sees real choices. *)
      match Heap.tie_seqs t.queue with
      | [||] -> false
      | seqs ->
        let time =
          match Heap.peek_time t.queue with Some x -> x | None -> assert false
        in
        let k = if Array.length seqs = 1 then 0 else choose ~time ~seqs in
        let time, thunk = Heap.pop_tie t.queue k in
        t.now <- Time.of_ns time;
        t.events <- t.events + 1;
        thunk ();
        true)

let run_seq t =
  while step t do () done;
  if t.live > 0 then
    raise
      (Stalled
         (Printf.sprintf
            "simulation stalled at t=%dns with %d process(es) blocked: %s"
            (Time.to_ns t.now) t.live
            (String.concat ", " (blocked_names t))))

(* ------------------------------------------------------------------ *)
(* Parallel run: hub/client alternation. *)

(* Drained outbox entries carry explicit huge priorities so that at one
   instant they order after every hub-local event (seq-keyed, small) and
   among themselves in drain order — partition index first, then staging
   order — which is deterministic because the drain is serial. *)
let hub_prio_base = 1 lsl 60

let run_par t =
  if t.chooser <> None then
    invalid_arg "Engine.run: the chooser requires a single-domain engine";
  if t.quantum > 0 then
    invalid_arg "Engine.run: a quantum requires a single-domain engine";
  if t.lookahead < 1 then
    invalid_arg
      "Engine.run: a parallel run needs a positive lookahead \
       (Engine.set_lookahead)";
  let d = t.domains in
  (* Epoch handshake. The alternation is fine-grained — the epoch count
     is on the order of the event count — so the round-trip cost sits on
     the critical path. Publication therefore goes through atomics (a
     worker spins briefly on [epoch], the main domain on [pending]) and
     the mutex/condvar pair is only the fallback for waits that outlast
     the spin budget. Plain fields ([bound], [active], [errors]) are
     safely published across domains by the atomic they precede: the
     writer updates them before the atomic store, the reader loads the
     atomic first, and the OCaml memory model orders the pair. *)
  let m = Mutex.create () in
  let cv_go = Condition.create () in
  let cv_done = Condition.create () in
  let epoch = Atomic.make 0 in
  let pending = Atomic.make 0 in
  let sleepers = Atomic.make 0 in
  let main_sleeping = Atomic.make false in
  let quit = Atomic.make false in
  let bound = ref 0 in
  let active = Array.make (d + 1) false in
  let errors = Array.make (d + 1) None in
  let spin_budget = 500 in
  (* One client pass: pop and run this partition's events strictly below
     the bound. Runs on the partition's own domain. *)
  let run_pass pidx b =
    set_cur pidx;
    let p = t.parts.(pidx - 1) in
    let continue_ = ref true in
    while !continue_ do
      match Heap.peek_time p.p_queue with
      | Some time when time < b -> (
          match Heap.pop p.p_queue with
          | Some (time, thunk) ->
            p.p_now <- Time.of_ns time;
            p.p_events <- p.p_events + 1;
            thunk ()
          | None -> assert false)
      | _ -> continue_ := false
    done
  in
  let worker pidx () =
    let last = ref 0 in
    let stop = ref false in
    while not !stop do
      let spins = ref 0 in
      while
        Atomic.get epoch = !last
        && (not (Atomic.get quit))
        && !spins < spin_budget
      do
        incr spins;
        Domain.cpu_relax ()
      done;
      if Atomic.get epoch = !last && not (Atomic.get quit) then begin
        (* Slow path: register as a sleeper and recheck under the lock,
           so the main domain's post-increment broadcast cannot slip
           between the check and the wait. *)
        Mutex.lock m;
        Atomic.incr sleepers;
        while Atomic.get epoch = !last && not (Atomic.get quit) do
          Condition.wait cv_go m
        done;
        Atomic.decr sleepers;
        Mutex.unlock m
      end;
      if Atomic.get quit then stop := true
      else begin
        (* A worker can only skip epochs in which it was inactive: when
           it is counted in [pending], the main domain's barrier wait
           keeps the epoch open until this pass completes. *)
        last := Atomic.get epoch;
        if active.(pidx) then begin
          let b = !bound in
          (try run_pass pidx b with e -> errors.(pidx) <- Some e);
          if Atomic.fetch_and_add pending (-1) = 1 then
            if Atomic.get main_sleeping then begin
              Mutex.lock m;
              Condition.signal cv_done;
              Mutex.unlock m
            end
        end
      end
    done
  in
  let doms = Array.init (d - 1) (fun i -> Domain.spawn (worker (i + 2))) in
  let finish_workers () =
    Atomic.set quit true;
    Mutex.lock m;
    Condition.broadcast cv_go;
    Mutex.unlock m;
    Array.iter Domain.join doms;
    set_cur 0
  in
  let min_client () =
    Array.fold_left
      (fun acc p ->
         match Heap.peek_time p.p_queue with
         | Some x when x < acc -> x
         | _ -> acc)
      max_int t.parts
  in
  (* The hub pass runs every hub event strictly below the earliest
     pending client event, recomputing that horizon as it goes: a hub
     event may push a wake into a client heap (lowering the horizon), at
     which point the hub stops and the tie goes to the client. Serial, on
     the main domain, with every client paused — so hub events may touch
     client-owned simulated state. *)
  let hub_pass () =
    set_cur 0;
    let continue_ = ref true in
    while !continue_ do
      match Heap.peek_time t.queue with
      | Some time when time < min_client () -> (
          match Heap.pop t.queue with
          | Some (time, thunk) ->
            t.now <- Time.of_ns time;
            t.events <- t.events + 1;
            thunk ()
          | None -> assert false)
      | _ -> continue_ := false
    done
  in
  Fun.protect ~finally:finish_workers (fun () ->
      let running = ref true in
      while !running do
        let next_h =
          match Heap.peek_time t.queue with Some x -> x | None -> max_int
        in
        let t_min = min_client () in
        if next_h = max_int && t_min = max_int then running := false
        else begin
          (* Clients may run events strictly below [b]: up to and
             including the next hub instant (the +1 hands exact hub/client
             ties to the client, whose event cannot affect the hub sooner
             than the lookahead), and never beyond the earliest client
             horizon plus lookahead (CMB: no client's output can reach
             another partition earlier than that). *)
          let b1 = if next_h = max_int then max_int else next_h + 1 in
          let b2 = if t_min = max_int then max_int else t_min + t.lookahead in
          let b = Stdlib.min b1 b2 in
          let nact = ref 0 in
          for pidx = 1 to d do
            let act =
              match Heap.peek_time t.parts.(pidx - 1).p_queue with
              | Some x -> x < b
              | None -> false
            in
            active.(pidx) <- act;
            if act && pidx >= 2 then incr nact
          done;
          if !nact > 0 then begin
            (* [pending]/[bound]/[active] precede the epoch bump that
               publishes them; spinning workers need no wakeup, blocked
               ones get the broadcast. *)
            Atomic.set pending !nact;
            bound := b;
            Atomic.incr epoch;
            if Atomic.get sleepers > 0 then begin
              Mutex.lock m;
              Condition.broadcast cv_go;
              Mutex.unlock m
            end
          end;
          if active.(1) then
            (try run_pass 1 b with e -> errors.(1) <- Some e);
          if !nact > 0 then begin
            let spins = ref 0 in
            while Atomic.get pending > 0 && !spins < spin_budget do
              incr spins;
              Domain.cpu_relax ()
            done;
            if Atomic.get pending > 0 then begin
              Mutex.lock m;
              Atomic.set main_sleeping true;
              while Atomic.get pending > 0 do
                Condition.wait cv_done m
              done;
              Atomic.set main_sleeping false;
              Mutex.unlock m
            end
          end;
          for pidx = 1 to d do
            match errors.(pidx) with Some e -> raise e | None -> ()
          done;
          (* Barrier passed: drain the outboxes into the hub heap, in
             partition order then staging order — a serial, deterministic
             merge. *)
          for pidx = 1 to d do
            let p = t.parts.(pidx - 1) in
            while not (Queue.is_empty p.p_outbox) do
              let time, thunk = Queue.pop p.p_outbox in
              Heap.push t.queue ~prio:(hub_prio_base + t.drain_seq) ~time
                thunk;
              t.drain_seq <- t.drain_seq + 1
            done
          done;
          hub_pass ()
        end
      done;
      (* Normalize every clock to the global maximum so [now] (elapsed
         time) is well-defined after the run, whichever partition asks. *)
      let gmax =
        Array.fold_left (fun acc p -> Time.max acc p.p_now) t.now t.parts
      in
      t.now <- gmax;
      Array.iter (fun p -> p.p_now <- gmax) t.parts;
      let total_live =
        Array.fold_left (fun acc p -> acc + p.p_live) t.live t.parts
      in
      if total_live > 0 then
        raise
          (Stalled
             (Printf.sprintf
                "simulation stalled at t=%dns with %d process(es) blocked: %s"
                (Time.to_ns t.now) total_live
                (String.concat ", " (blocked_names t)))))

let run t = if t.domains = 1 then run_seq t else run_par t

let run_until t limit =
  if t.domains > 1 then
    invalid_arg "Engine.run_until: requires a single-domain engine";
  let continue_ = ref true in
  while !continue_ do
    match Heap.peek_time t.queue with
    | Some next when Time.( <= ) (Time.of_ns next) limit ->
      ignore (step t : bool)
    | _ -> continue_ := false
  done;
  if Time.( < ) t.now limit then t.now <- limit

let delay d = if d > 0 then Effect.perform (Delay d)
let yield () = Effect.perform (Delay 0)

let suspend ~register =
  Effect.perform (Suspend (fun wake -> register ~wake))

let suspendv ~register =
  Effect.perform (Suspend (fun wake -> register ~wake))

(* ------------------------------------------------------------------ *)
(* Hub regions: the bridge protocol code uses to touch hub-owned state. *)

let hub_run t f =
  if t.domains = 1 then f ()
  else begin
    let home = cur () in
    if home = 0 then f ()
    else begin
      let p = t.parts.(home - 1) in
      match
        suspendv ~register:(fun ~wake ->
            let entered = Time.to_ns p.p_now in
            Queue.add
              ( entered,
                fun () ->
                  (* Hub side: run the region body as a fresh hub fiber
                     (it performs Delay/Suspend), then wake the parked
                     client fiber with its result. *)
                  let pid = t.next_pid in
                  t.next_pid <- pid + 1;
                  t.live <- t.live + 1;
                  Hashtbl.replace t.names pid "hub-region";
                  exec_process t 0 pid (fun () ->
                      let r =
                        match f () with v -> Ok v | exception e -> Error e
                      in
                      wake r) )
              p.p_outbox)
      with
      | Ok v -> v
      | Error e -> raise e
    end
  end

let remote_post t f =
  if t.domains = 1 then f ()
  else
    match cur () with
    | 0 -> f ()
    | c -> Queue.add (Time.to_ns t.parts.(c - 1).p_now, f) t.parts.(c - 1).p_outbox
