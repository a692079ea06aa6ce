(* Per coherence line, indexed by [addr lsr line_shift] and grown with
   [data]: [present] is the bitmask of threads holding a copy and [owner]
   the thread holding it modified, or -1. A touched line always has a
   present bit, so [present = 0] (with [owner = -1]) is an untouched, cold
   line — which the general transitions below already classify as a cold
   miss, so there is no separate first-touch case. *)
type t = {
  cfg : Config.t;
  mutable data : bytes;
  mutable used : int;
  mutable present : int array;
  mutable owner : int array;
  line_shift : int;
  mutable coherence_misses : int;
  mutable invalidations : int;
  mutable cold_misses : int;
}

type access = Hit | Cold | Coherence | Invalidate

let log2 n =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

let create (cfg : Config.t) =
  (match Config.validate cfg with
   | Ok () -> ()
   | Error m -> invalid_arg ("Smp.Machine.create: " ^ m));
  { cfg;
    data = Bytes.empty;
    used = 0;
    present = [||];
    owner = [||];
    line_shift = log2 cfg.Config.coherence_line;
    coherence_misses = 0;
    invalidations = 0;
    cold_misses = 0 }

(* The store and its line state come into being at the first allocation
   and grow together, by doubling from 1 MiB, so creating a machine costs
   nothing until a run allocates. *)
let grow t needed =
  let size = ref (max (1 lsl 20) (Bytes.length t.data)) in
  while !size < needed do
    size := !size * 2
  done;
  if !size > Bytes.length t.data then begin
    let fresh = Bytes.make !size '\000' in
    Bytes.blit t.data 0 fresh 0 (Bytes.length t.data);
    t.data <- fresh;
    let lines = ((!size - 1) lsr t.line_shift) + 1 in
    let widen old fill =
      let a = Array.make lines fill in
      Array.blit old 0 a 0 (Array.length old);
      a
    in
    t.present <- widen t.present 0;
    t.owner <- widen t.owner (-1)
  end

let alloc t ~bytes ~align =
  if bytes <= 0 then invalid_arg "Smp.Machine.alloc: bytes must be > 0";
  if align <= 0 || align land (align - 1) <> 0 then
    invalid_arg "Smp.Machine.alloc: align must be a positive power of two";
  let base = (t.used + align - 1) land lnot (align - 1) in
  t.used <- base + bytes;
  grow t t.used;
  base

let used_bytes t = t.used

(* Both classifiers read the line's state (bounds-checked, so an address
   past the store raises before anything is recorded) and only then
   update it. *)
let read_class t ~thread ~addr =
  let i = addr lsr t.line_shift in
  let present = t.present.(i) and owner = t.owner.(i) in
  let bit = 1 lsl thread in
  if present land bit <> 0 && (owner = thread || owner = -1) then Hit
  else begin
    (* Copy supplied by the current owner (downgraded to shared) or by
       another sharer/memory. *)
    let cls =
      if owner >= 0 && owner <> thread then begin
        t.coherence_misses <- t.coherence_misses + 1;
        Coherence
      end
      else begin
        t.cold_misses <- t.cold_misses + 1;
        Cold
      end
    in
    t.owner.(i) <- -1;
    t.present.(i) <- present lor bit;
    cls
  end

let write_class t ~thread ~addr =
  let i = addr lsr t.line_shift in
  let present = t.present.(i) and owner = t.owner.(i) in
  if owner = thread then Hit
  else begin
    let bit = 1 lsl thread in
    (* Upgrade: invalidate every other copy. *)
    let cls =
      if present land lnot bit <> 0 || owner >= 0 then begin
        t.invalidations <- t.invalidations + 1;
        Invalidate
      end
      else if present land bit <> 0 then Hit
      else begin
        t.cold_misses <- t.cold_misses + 1;
        Cold
      end
    in
    t.present.(i) <- bit;
    t.owner.(i) <- thread;
    cls
  end

let cost_ns (cfg : Config.t) = function
  | Hit -> cfg.Config.t_mem
  | Cold -> cfg.Config.t_cold_miss
  | Coherence -> cfg.Config.t_coherence_miss
  | Invalidate -> cfg.Config.t_invalidate

let read_cost t ~thread ~addr = cost_ns t.cfg (read_class t ~thread ~addr)
let write_cost t ~thread ~addr = cost_ns t.cfg (write_class t ~thread ~addr)

let read_i64 t addr = Bytes.get_int64_le t.data addr
let write_i64 t addr v = Bytes.set_int64_le t.data addr v
let read_f64 t addr = Int64.float_of_bits (Bytes.get_int64_le t.data addr)

let write_f64 t addr v =
  Bytes.set_int64_le t.data addr (Int64.bits_of_float v)

let coherence_misses t = t.coherence_misses
let invalidations t = t.invalidations
let cold_misses t = t.cold_misses
