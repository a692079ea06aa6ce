(* Allocation regression test for the per-access path. A warmed 3-row
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

let tests =
  [ Alcotest.test_case "samhita stencil words/access" `Quick
      (check_backend "samhita" Workload.Samhita_backend.default);
    Alcotest.test_case "pthreads stencil words/access" `Quick
      (check_backend "pthreads" Workload.Smp_backend.default) ]

let () = Alcotest.run "alloc" [ ("per-access", tests) ]
