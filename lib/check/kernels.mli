(** Bounded kernels for exhaustive exploration.

    Each kernel is small-scope by construction — 2–3 threads, 1–2 pages of
    data, a handful of synchronization episodes — so its same-instant
    scheduling tree is exhaustible:

    - [racy]: seeds one data race (all threads store word 0 unordered)
      next to a correctly lock-protected counter. Every schedule carries
      the race; the counter doubles as a checksum.
    - [micro]: a properly synchronized cut of the paper's micro-benchmark
      (per-thread rows, lock-protected global sum, barriers). Every
      schedule must be clean and produce the analytic sum.
    - [abba]: a schedule-dependent ABBA deadlock — a racy flag handoff
      under one lock decides whether the threads nest a lock pair in ring
      or ascending order, so some schedules deadlock and some complete. *)

type t = Racy | Micro | Abba

val name : t -> string
val all : t list
val of_name : string -> (t, string) result

val build : t -> Samhita.System.t -> threads:int -> pages:int -> unit -> string option
(** Create the kernel's sync objects and spawn its thread bodies into an
    already-created system (the caller subscribes its observers and
    installs its controlled scheduler first, then calls
    {!Samhita.System.run}). The returned thunk is the post-run checksum:
    [Some message] on mismatch. *)
