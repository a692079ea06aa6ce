(* Boundary-attributed host time.

   Every call the benchmark's backend wrapper sees is a boundary crossing.
   The host time between two consecutive crossings, on whichever fiber they
   happen, is charged to the layer the earlier crossing entered, so the
   layer self times partition the traced pass's wall time exactly. An
   access call is classified hit or miss when it returns, by whether the
   thread's miss counter moved across it; only the segment that starts at
   its entry is its own (after a suspension the next crossing belongs to
   another fiber), so that segment is parked per fiber until the exit. *)

type layer =
  | Setup_traffic  (** Input generation: from a run's start to [create]. *)
  | Setup_create  (** [create], [mutex], [barrier], [spawn]: up to [run]. *)
  | Workload  (** Kernel code between backend calls. *)
  | Hit  (** read/write calls that did not miss. *)
  | Miss  (** read/write calls that missed. *)
  | Sync  (** lock/unlock/barrier_wait. *)
  | Other  (** Every other thread call (flops, clocks, idle, malloc). *)
  | Engine  (** From [run] entry to the first fiber crossing. *)
  | Smp  (** Any backend call while the SMP ("pth") baseline runs. *)
  | Harness  (** The benchmark's own checks between runs. *)

let all_layers =
  [ Setup_traffic; Setup_create; Workload; Hit; Miss; Sync; Other; Engine;
    Smp; Harness ]

let index = function
  | Setup_traffic -> 0 | Setup_create -> 1 | Workload -> 2 | Hit -> 3
  | Miss -> 4 | Sync -> 5 | Other -> 6 | Engine -> 7 | Smp -> 8
  | Harness -> 9

(* A call's own segment waits here until its exit classifies it. *)
let pending = -1

(* Fiber 0 is the main program; simulated thread [i] is fiber [i + 1]. *)
let max_fibers = 1024
let main = 0

type span_kind = Run | Create | Sync_span | Miss_span

let span_name = function
  | Run -> "run" | Create -> "create" | Sync_span -> "sync"
  | Miss_span -> "miss"

let span_cap = 100_000

type t = {
  self_ns : int array;
  mutable first : int;
  mutable last : int;
  mutable cur : int;  (** Layer index, or [pending]. *)
  mutable cur_fiber : int;
  mutable cur_call : bool;  (** Did the last crossing enter a call? *)
  mutable smp : bool;
  pend_ns : int array;
  entry_ns : int array;
  misses0 : int array;
  mutable hit_calls : int;
  mutable miss_calls : int;
  mutable sync_calls : int;
  mutable smp_ops : int;
  mutable suspended_ns : int;
  spans : int array;  (** [span_cap] records of kind, fiber, start, end. *)
  mutable n_spans : int;
  mutable dropped_spans : int;
  mutable marks : int array;  (** Timestamps at fixed points of the work. *)
  mutable n_marks : int;
  mutable syncs : int;
  stride_mask : int;  (** Mark every sync call whose count has these bits 0. *)
  mutable run_first : int;
  mutable run_engine : int;
  mutable bounds : (int * int * int) list;
      (** Per run, newest first: indices of the marks at its start, at
          [run] entry and at its end. *)
}

let now () = Int64.to_int (Monotonic_clock.now ())

(* Only fine tracing records spans. *)
let create ~spans ~stride_mask =
  let t0 = now () in
  { self_ns = Array.make (List.length all_layers) 0;
    first = t0;
    last = t0;
    cur = index Harness;
    cur_fiber = main;
    cur_call = false;
    smp = false;
    pend_ns = Array.make max_fibers 0;
    entry_ns = Array.make max_fibers 0;
    misses0 = Array.make max_fibers 0;
    hit_calls = 0;
    miss_calls = 0;
    sync_calls = 0;
    smp_ops = 0;
    suspended_ns = 0;
    spans = (if spans then Array.make (4 * span_cap) 0 else [||]);
    n_spans = 0;
    dropped_spans = 0;
    marks = Array.make 1024 0;
    n_marks = 0;
    syncs = 0;
    stride_mask;
    run_first = 0;
    run_engine = 0;
    bounds = [] }

(* Close the open segment at [now] on [fiber]. A segment that began at a
   call entry and ends on another fiber contains the engine dispatching
   other work while the caller was suspended. *)
let close t ~fiber tnow =
  let d = tnow - t.last in
  if t.cur = pending then t.pend_ns.(t.cur_fiber) <- t.pend_ns.(t.cur_fiber) + d
  else t.self_ns.(t.cur) <- t.self_ns.(t.cur) + d;
  if t.cur_call && fiber <> t.cur_fiber && not t.smp then
    t.suspended_ns <- t.suspended_ns + d;
  t.last <- tnow

let enter t ~fiber ~call cur =
  t.cur <- cur;
  t.cur_fiber <- fiber;
  t.cur_call <- call

let cross t ~fiber layer =
  close t ~fiber (now ());
  enter t ~fiber ~call:false (index layer)

let span t kind ~fiber ~start ~stop =
  if 4 * t.n_spans < Array.length t.spans then begin
    let i = 4 * t.n_spans in
    t.spans.(i) <- (match kind with
        | Run -> 0 | Create -> 1 | Sync_span -> 2 | Miss_span -> 3);
    t.spans.(i + 1) <- fiber;
    t.spans.(i + 2) <- start;
    t.spans.(i + 3) <- stop;
    t.n_spans <- t.n_spans + 1
  end
  else t.dropped_spans <- t.dropped_spans + 1

(* Marks split a run into segments that do the same work in every pass,
   so each segment's fastest time over the passes can be taken: a run's
   start, its [run] entry, its end, and every sync call the stride picks. *)
let mark t ts =
  if t.n_marks = Array.length t.marks then begin
    let a = Array.make (2 * t.n_marks) 0 in
    Array.blit t.marks 0 a 0 t.n_marks;
    t.marks <- a
  end;
  t.marks.(t.n_marks) <- ts;
  t.n_marks <- t.n_marks + 1

let checkpoint t =
  t.syncs <- t.syncs + 1;
  if t.syncs land t.stride_mask = 0 then mark t (now ())

(* Main-fiber boundaries around one run of a kernel. *)
let run_start t =
  cross t ~fiber:main Setup_traffic;
  t.run_first <- t.n_marks;
  mark t t.last
let create_enter t = cross t ~fiber:main Setup_create; t.entry_ns.(main) <- t.last

let create_exit t =
  cross t ~fiber:main Setup_create;
  span t Create ~fiber:main ~start:t.entry_ns.(main) ~stop:t.last

let engine_enter t =
  cross t ~fiber:main Engine;
  t.run_engine <- t.n_marks;
  mark t t.last;
  t.cur_call <- true;
  t.entry_ns.(main) <- t.last

let engine_exit t =
  cross t ~fiber:main Workload;
  span t Run ~fiber:main ~start:t.entry_ns.(main) ~stop:t.last

let run_end t =
  cross t ~fiber:main Harness;
  mark t t.last;
  t.bounds <- (t.run_first, t.run_engine, t.n_marks - 1) :: t.bounds

(* Thread calls. [fiber] is the simulated thread id plus one. *)
let access_enter t ~fiber ~misses =
  let tnow = now () in
  close t ~fiber tnow;
  if t.smp then enter t ~fiber ~call:true (index Smp)
  else begin
    t.misses0.(fiber) <- misses;
    t.entry_ns.(fiber) <- tnow;
    enter t ~fiber ~call:true pending
  end

let access_exit t ~fiber ~misses =
  close t ~fiber (now ());
  if t.smp then t.smp_ops <- t.smp_ops + 1
  else begin
    let own = t.pend_ns.(fiber) in
    t.pend_ns.(fiber) <- 0;
    if misses <> t.misses0.(fiber) then begin
      t.self_ns.(index Miss) <- t.self_ns.(index Miss) + own;
      t.miss_calls <- t.miss_calls + 1;
      span t Miss_span ~fiber ~start:t.entry_ns.(fiber) ~stop:t.last
    end
    else begin
      t.self_ns.(index Hit) <- t.self_ns.(index Hit) + own;
      t.hit_calls <- t.hit_calls + 1
    end
  end;
  enter t ~fiber ~call:false (index Workload)

let sync_enter t ~fiber =
  close t ~fiber (now ());
  t.entry_ns.(fiber) <- t.last;
  enter t ~fiber ~call:true (index (if t.smp then Smp else Sync))

let sync_exit t ~fiber =
  close t ~fiber (now ());
  if t.smp then t.smp_ops <- t.smp_ops + 1
  else begin
    t.sync_calls <- t.sync_calls + 1;
    span t Sync_span ~fiber ~start:t.entry_ns.(fiber) ~stop:t.last
  end;
  enter t ~fiber ~call:false (index Workload)

let other_enter t ~fiber =
  close t ~fiber (now ());
  enter t ~fiber ~call:true (index (if t.smp then Smp else Other))

let other_exit t ~fiber =
  close t ~fiber (now ());
  enter t ~fiber ~call:false (index Workload)

let set_smp t b = t.smp <- b

(* Close the pass: charge the tail and return its wall time. Every parked
   call segment must have been classified by then. *)
let finish t =
  close t ~fiber:main (now ());
  if Array.exists (fun x -> x <> 0) t.pend_ns then
    failwith "tracer: a call never returned";
  t.last - t.first

let self_ns t layer = t.self_ns.(index layer)

(* Chrome trace-event JSON (loadable by chrome://tracing and Perfetto). *)
let write_spans t path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  for s = 0 to t.n_spans - 1 do
    let i = 4 * s in
    let kind =
      match t.spans.(i) with
      | 0 -> Run | 1 -> Create | 2 -> Sync_span | _ -> Miss_span
    in
    Printf.fprintf oc
      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}"
      (if s = 0 then "" else ",") (span_name kind) t.spans.(i + 1)
      (float_of_int (t.spans.(i + 2) - t.first) /. 1e3)
      (float_of_int (t.spans.(i + 3) - t.spans.(i + 2)) /. 1e3)
  done;
  Printf.fprintf oc "\n],\"droppedSpans\":%d}\n" t.dropped_spans;
  close_out oc
