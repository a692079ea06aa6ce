(* Allocation regression tests for the per-access path and the
   multiple-writer line cycle (below). A warmed 3-row
   stencil loop runs through Backend_sig on both backends; every access
   switches coherence/cache line, so the single-line fast paths cannot
   hide the line-switching cost. The bound is per access, in minor-heap
   words, and covers what remains by design: the float boxed at the
   first-class Backend_sig boundary (one per read result, one per write
   argument, two words each). *)

let cols = 1024
let row_bytes = 16 * 1024  (* one Samhita line: each row is its own line *)
let passes = 20
let accesses = passes * cols * 4

(* Minor words per access of the stencil after one warm-up pass. *)
let words_per_access (backend : Workload.Backend_sig.backend) =
  let module B = (val backend) in
  let sys = B.create ~threads:1 in
  let result = ref nan in
  B.spawn sys (fun t ->
      let base = B.malloc t ~bytes:(3 * row_bytes) in
      let at r j = base + (r * row_bytes) + (8 * j) in
      for r = 0 to 2 do
        for j = 0 to cols - 1 do
          B.write_f64 t (at r j) (float_of_int (r + j))
        done
      done;
      let sweep () =
        for j = 0 to cols - 1 do
          let s =
            B.read_f64 t (at 0 j) +. B.read_f64 t (at 1 j)
            +. B.read_f64 t (at 2 j)
          in
          B.write_f64 t (at 1 j) (s *. 0.25)
        done
      in
      sweep ();
      let w0 = Gc.minor_words () in
      for _ = 1 to passes do
        sweep ()
      done;
      let w1 = Gc.minor_words () in
      result := (w1 -. w0) /. float_of_int accesses);
  B.run sys;
  !result

(* Measured with OCaml 5.1.1 (no flambda): 2.0 words per access on both
   backends, exactly the boundary floats; 7.0 on both before the SMP line
   state went flat and the fast-path entry lost its option. The bound sits
   below 2.75, so one boxed int64 per stencil column, or one [Some] per
   line switch, fails it. *)
let bound = 2.5

let check_backend name backend () =
  let w = words_per_access backend in
  if not (w <= bound) then
    Alcotest.failf "%s: %.2f minor words per access (bound %.1f)" name w
      bound

(* The multiple-writer line cycle: two threads each write their own half
   of one shared line, then meet at a barrier, which flushes both diffs
   and invalidates the line in both caches, so every round refetches it
   and twins it again. A line buffer is 2,048 words, far above the
   minor-heap block limit, so each fetch or twin that allocated would land
   directly in the major heap. The figure is direct major-heap words
   (major minus promoted) per round, read by thread 0 after a warm-up. *)
let cycle_warmup = 4
let cycle_rounds = 32
let cycle_words = 16

let direct_major_words () =
  let _minor, promoted, major = Gc.counters () in
  major -. promoted

let major_words_per_cycle () =
  let module B = (val Workload.Samhita_backend.default) in
  let sys = B.create ~threads:2 in
  let bar = B.barrier sys ~parties:2 in
  let line = ref 0 in
  let result = ref nan in
  for _ = 1 to 2 do
    B.spawn sys (fun t ->
        let id = B.thread_id t in
        if id = 0 then begin
          let base = B.malloc t ~bytes:(2 * row_bytes) in
          line := (base + row_bytes - 1) land lnot (row_bytes - 1)
        end;
        B.barrier_wait t bar;
        let half = !line + (id * (row_bytes / 2)) in
        let round r =
          for w = 0 to cycle_words - 1 do
            B.write_f64 t (half + (8 * w)) (float_of_int (r + w))
          done;
          B.barrier_wait t bar
        in
        for r = 1 to cycle_warmup do
          round r
        done;
        let w0 = direct_major_words () in
        for r = 1 to cycle_rounds do
          round r
        done;
        let w1 = direct_major_words () in
        if id = 0 then result := (w1 -. w0) /. float_of_int cycle_rounds);
  done;
  B.run sys;
  !result

(* Set before the line buffers were recycled, not tuned to the result: a
   quarter of one line per round. Allocating the fetch copy and the twin
   afresh costs four lines (8,192 words) per round. *)
let cycle_bound = 512.

let check_line_cycle () =
  let w = major_words_per_cycle () in
  if not (w <= cycle_bound) then
    Alcotest.failf "%.0f direct major words per line cycle (bound %.0f)" w
      cycle_bound

let tests =
  [ Alcotest.test_case "samhita stencil words/access" `Quick
      (check_backend "samhita" Workload.Samhita_backend.default);
    Alcotest.test_case "pthreads stencil words/access" `Quick
      (check_backend "pthreads" Workload.Smp_backend.default);
    Alcotest.test_case "false-sharing line cycle major words" `Quick
      check_line_cycle ]

let () = Alcotest.run "alloc" [ ("per-access", tests) ]
