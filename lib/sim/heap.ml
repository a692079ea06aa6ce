(* Unboxed parallel-arrays layout: the key fields live in three plain int
   arrays and the payloads in a fourth array, so a push allocates nothing
   (the old layout boxed every entry in a record inside an option) and a
   sift step compares immediate ints instead of pattern-matching two
   [Some] cells. The payload array is created lazily from the first pushed
   payload so it gets the right runtime representation (e.g. a flat float
   array when ['a = float]). *)

type tie_break = time:int -> seq:int -> int

type 'a t = {
  mutable times : int array;
  mutable prios : int array;
  mutable seqs : int array;
  (* [Array.length payloads = 0] until the first push; slots at indices
     >= [size] may retain stale payloads until overwritten (see .mli). *)
  mutable payloads : 'a array;
  mutable size : int;
  mutable next_seq : int;
  mutable tie_break : tie_break option;
}

let create ?(initial_capacity = 256) ?tie_break () =
  let cap = Stdlib.max 1 initial_capacity in
  { times = Array.make cap 0;
    prios = Array.make cap 0;
    seqs = Array.make cap 0;
    payloads = [||];
    size = 0;
    next_seq = 0;
    tie_break }

let set_tie_break t tb = t.tie_break <- tb

let is_empty t = t.size = 0
let length t = t.size

(* Among equal times, [prio] decides; [seq] breaks prio collisions so the
   order is total and deterministic. With no tie_break installed
   [prio = seq], i.e. FIFO among equals. Keys are unique (seq is), so the
   drain order is independent of the heap's internal shape — the unboxed
   rewrite pops in exactly the order the boxed implementation did. *)
let key_lt ~time ~prio ~seq t j =
  let tj = Array.unsafe_get t.times j in
  time < tj
  || (time = tj
      && (let pj = Array.unsafe_get t.prios j in
          prio < pj || (prio = pj && seq < Array.unsafe_get t.seqs j)))

let grow t =
  let cap = Array.length t.times in
  let cap' = 2 * cap in
  let grow_int a =
    let a' = Array.make cap' 0 in
    Array.blit a 0 a' 0 t.size;
    a'
  in
  t.times <- grow_int t.times;
  t.prios <- grow_int t.prios;
  t.seqs <- grow_int t.seqs;
  (* grow is only reached with size = cap >= 1, so payloads is non-empty
     and payloads.(0) is a valid seed element. *)
  let p' = Array.make cap' t.payloads.(0) in
  Array.blit t.payloads 0 p' 0 t.size;
  t.payloads <- p'

let set_slot t i ~time ~prio ~seq payload =
  Array.unsafe_set t.times i time;
  Array.unsafe_set t.prios i prio;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.payloads i payload

let move_slot t ~src ~dst =
  Array.unsafe_set t.times dst (Array.unsafe_get t.times src);
  Array.unsafe_set t.prios dst (Array.unsafe_get t.prios src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  Array.unsafe_set t.payloads dst (Array.unsafe_get t.payloads src)

let push t ~time payload =
  if t.size = Array.length t.times then grow t;
  if Array.length t.payloads = 0 then
    t.payloads <- Array.make (Array.length t.times) payload;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let prio = match t.tie_break with None -> seq | Some f -> f ~time ~seq in
  (* Hole-based sift-up: parents slide down until the new key's slot is
     found; the new element is written exactly once. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let stop = ref false in
  while (not !stop) && !i > 0 do
    let parent = (!i - 1) / 2 in
    if key_lt ~time ~prio ~seq t parent then begin
      move_slot t ~src:parent ~dst:!i;
      i := parent
    end
    else stop := true
  done;
  set_slot t !i ~time ~prio ~seq payload

let min_time t =
  if t.size = 0 then invalid_arg "Heap.min_time: empty heap";
  Array.unsafe_get t.times 0

let take t =
  if t.size = 0 then invalid_arg "Heap.take: empty heap"
  else begin
    let payload0 = t.payloads.(0) in
    let n = t.size - 1 in
    t.size <- n;
    if n > 0 then begin
      (* Hole-based sift-down of the displaced last element. *)
      let time = t.times.(n)
      and prio = t.prios.(n)
      and seq = t.seqs.(n) in
      let payload = t.payloads.(n) in
      let i = ref 0 in
      let stop = ref false in
      while not !stop do
        let l = (2 * !i) + 1 in
        if l >= n then stop := true
        else begin
          let r = l + 1 in
          let c =
            if
              r < n
              && key_lt
                   ~time:(Array.unsafe_get t.times r)
                   ~prio:(Array.unsafe_get t.prios r)
                   ~seq:(Array.unsafe_get t.seqs r)
                   t l
            then r
            else l
          in
          if key_lt ~time ~prio ~seq t c then stop := true
          else begin
            move_slot t ~src:c ~dst:!i;
            i := c
          end
        end
      done;
      set_slot t !i ~time ~prio ~seq payload
    end;
    payload0
  end

let pop t =
  if t.size = 0 then None
  else
    let time = t.times.(0) in
    Some (time, take t)

let peek_time t = if t.size = 0 then None else Some t.times.(0)

(* ------------------------------------------------------------------ *)
(* Same-instant tie introspection (model-checker support).

   The controlled scheduler needs to see every entry sharing the minimal
   time and pop a chosen one, bypassing the [(prio, seq)] order. These
   scans are O(n) and only run in checking mode, where heaps hold a
   handful of events. Entries are identified by [seq]: with a fixed
   execution prefix, re-running assigns identical seqs, so a recorded
   choice replays exactly. *)

let tie_slots t =
  (* Heap slots whose time equals the minimum, sorted by seq so candidate
     indices are stable and independent of the heap's internal shape. *)
  if t.size = 0 then []
  else begin
    let t0 = t.times.(0) in
    let acc = ref [] in
    for i = t.size - 1 downto 0 do
      if t.times.(i) = t0 then acc := i :: !acc
    done;
    List.sort (fun a b -> Int.compare t.seqs.(a) t.seqs.(b)) !acc
  end

let tie_seqs t = Array.of_list (List.map (fun i -> t.seqs.(i)) (tie_slots t))

let swap_slots t i j =
  let swap (a : int array) =
    let v = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- v
  in
  swap t.times;
  swap t.prios;
  swap t.seqs;
  let p = t.payloads.(i) in
  t.payloads.(i) <- t.payloads.(j);
  t.payloads.(j) <- p

let slot_lt t i j =
  key_lt ~time:t.times.(i) ~prio:t.prios.(i) ~seq:t.seqs.(i) t j

let rec sift_up_at t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if slot_lt t i parent then begin
      swap_slots t i parent;
      sift_up_at t parent
    end
  end

let rec sift_down_at t i =
  let l = (2 * i) + 1 in
  if l < t.size then begin
    let r = l + 1 in
    let c = if r < t.size && slot_lt t r l then r else l in
    if slot_lt t c i then begin
      swap_slots t i c;
      sift_down_at t c
    end
  end

let pop_tie t k =
  let slots = tie_slots t in
  match List.nth_opt slots k with
  | None -> invalid_arg "Heap.pop_tie: tie index out of range"
  | Some p ->
    let time = t.times.(p) and payload = t.payloads.(p) in
    let n = t.size - 1 in
    t.size <- n;
    if p < n then begin
      move_slot t ~src:n ~dst:p;
      (* The moved key can violate the heap property in either direction;
         at most one of the two restorations moves it. *)
      sift_down_at t p;
      sift_up_at t p
    end;
    (time, payload)

let clear t =
  t.size <- 0;
  (* Drop the payload array so no popped payloads are retained; it is
     re-created on the next push. *)
  t.payloads <- [||]
