(* Fixed reference work that scales host timings to a reference speed.

   This benchmark's hosts share their cores, and the fastest speed one
   can reach moves by tens of percent from one minute to the next. A run's
   fastest time for a piece of work therefore depends on when the run
   happened. This chunk's fastest time, taken in the same run, moves with
   it: the chunk does what the simulator does most (hashing, float
   updates, short-lived allocation), but calls no library code, so a
   change to the simulator cannot move it. *)

(* The chunk's fastest time at the reference speed. *)
let reference_ns = 6_000_000

let work () =
  let h = Hashtbl.create 4096 in
  let a = Array.make 65536 0.0 in
  let acc = ref 0. and live = ref [] in
  for i = 0 to 60_000 do
    let k = (i * 7919) land 65535 in
    a.(k) <- (a.(k) *. 0.5) +. float_of_int i;
    Hashtbl.replace h (k land 4095) (i, a.(k));
    (match Hashtbl.find_opt h ((k * 31) land 4095) with
     | Some (_, v) -> acc := !acc +. v
     | None -> ());
    live := (k, i) :: !live;
    if i land 1023 = 0 then live := []
  done;
  !acc

(* The fastest of [n] chunks, ns. *)
let fastest n =
  let time () =
    let t0 = Tracer.now () in
    ignore (Sys.opaque_identity (work ()) : float);
    Tracer.now () - t0
  in
  List.fold_left min max_int (List.init n (fun _ -> time ()))
