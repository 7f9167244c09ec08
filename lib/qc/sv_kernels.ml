(** Gate kernels and reductions over the slab storage ({!Sv_shard}).

    Every kernel is written once, against one slab: a flat state is a
    single slab whose base index is 0. A per-gate kernel visits only the
    amplitudes its gate changes. Its {e fixed} bits (target and
    controls) name them: the representatives are the indices whose
    fixed bits are all zero, each one stands for the pair or the single
    amplitude the gate touches, and the kernel steps from one to the
    next without testing the indices in between. Slab-local work goes
    through {!run_chunks}, which spreads slab ranges over the {!Par}
    pool, or splits a single slab's representatives when the state has
    only one; a pair whose partner sits in another slab streams the two
    slabs in lockstep. Reductions chunk the {e global} index space into
    a fixed block count and walk each block's slabs in ascending global
    order, so sums are bit-identical across every jobs × shard-bits
    setting. *)

include Sv_shard

(* States at or below this size run kernels sequentially: the per-batch
   synchronization (~µs) would dwarf the loop itself. 2^14 amplitudes ≈
   256 kB, roughly where one pass stops fitting in L2. *)
let par_threshold = 1 lsl 14

(* Below this many qubits [Statevector.run] applies gates one by one
   instead of replaying a plan. A gate costs its touched amplitudes and
   a few ns of dispatch: the 232 gates of a 6-qubit flow output run in
   about 21 µs in all, about 90 ns a gate (35 µs when every kernel
   tested all 2^n indices; one core of a 2-vCPU VM), so the plan
   cache's structural key and the schedule would cost more than they
   save. Tests drive [Plan.build]/[Plan.execute] directly on small
   circuits. *)
let fuse_min_qubits = 10

(* The chunk driver for slab-local kernels: [body slo shi lo hi] runs a
   kernel on slabs [slo, shi), each over its units [lo, hi) — [units]
   per slab: amplitudes, representatives or block groups. Each pool
   task is one call, so a block kernel allocates its group scratch once
   per task. Many slabs split by slab range; a single slab above
   [par_threshold] splits its unit range instead, so a flat state keeps
   the whole pool. Tasks write disjoint slabs or disjoint unit ranges:
   any pool width is bit-identical. *)
let run_chunks s ~units body =
  let slabs = slab_count s in
  if size s <= par_threshold then body 0 slabs 0 units
  else if slabs = 1 then
    Par.parallel_for (Par.global ()) ~start:0 ~stop:units (fun lo hi ->
        body 0 1 lo hi)
  else
    Par.parallel_for (Par.global ()) ~start:0 ~stop:slabs (fun slo shi ->
        body slo shi 0 units)

(* {!run_chunks} over the representatives of the local bits [fixed], for
   kernels without scratch: [f sl lo hi] once per slab, over the ranks
   [lo, hi) of its 2^(sb − popcount fixed) representatives. *)
let run_reps s ~fixed f =
  run_chunks s ~units:(slab_size s lsr Logic.Bitops.popcount fixed)
    (fun slo shi lo hi ->
      for sl = slo to shi - 1 do
        f sl lo hi
      done)

(* {!run_reps} with no fixed bit: [f sl lo hi] over amplitudes. *)
let run_slabs s f = run_reps s ~fixed:0 f

(* The cross-slab kernels' driver: a global range [0, stop) chunked over
   the pool once the state is big enough to amortize it. *)
let run_range s stop body =
  if size s <= par_threshold then body 0 stop
  else Par.parallel_for (Par.global ()) ~start:0 ~stop body

(* [deposit k f] is the representative of rank [k]: the [k]-th index,
   counting from 0, whose [f] bits are all zero. It spreads [k]'s bits
   over the free positions by opening a zero at each set bit of [f],
   lowest first (a software bit deposit onto [lnot f]), so a chunk
   starts at its first rank in O(popcount f). *)
let[@inline] deposit k f =
  let k = ref k and m = ref f in
  while !m <> 0 do
    let b = !m land - !m in
    let low = !k land (b - 1) in
    k := ((!k lxor low) lsl 1) lor low;
    m := !m lxor b
  done;
  !k

(* Kernel bodies are top-level segment functions over the ranks
   [lo, hi) of a slab's representatives: their callers pass unboxed
   arguments (loop locals stay in registers), and only the caller pays
   a closure. Wrapping the whole body in a closure costs
   ~15% on kernel-bound circuits without flambda, because captured
   variables are re-read from the closure environment each iteration.
   Each segment starts at [deposit lo fixed] and steps to the next
   representative with [((x lor fixed) + 1) land lnot fixed]: the carry
   skips every fixed bit. Amplitudes outside the representatives' pairs
   are never read or written, and each segment writes a disjoint index
   slice, so any worker count computes bit-identical amplitudes (Par's
   contract). The accesses skip the bounds check: a slab of 2^sb
   amplitudes has 2^(sb − popcount fixed) representatives, all below
   2^sb, and their callers pass only local fixed bits and a [want] inside
   them ({!apply} refuses a qubit outside the state), so every index a
   segment forms stays in the slab. *)
let seg_1q (re : float array) (im : float array) bit (m00 : Complex.t) (m01 : Complex.t)
    (m10 : Complex.t) (m11 : Complex.t) lo hi =
  let nf = lnot bit in
  let x = ref (deposit lo bit) in
  for _ = lo to hi - 1 do
    let x0 = !x in
    let y = x0 lor bit in
    let ar = Array.unsafe_get re x0 and ai = Array.unsafe_get im x0 in
    let br = Array.unsafe_get re y and bi = Array.unsafe_get im y in
    Array.unsafe_set re x0 ((m00.re *. ar) -. (m00.im *. ai) +. (m01.re *. br) -. (m01.im *. bi));
    Array.unsafe_set im x0 ((m00.re *. ai) +. (m00.im *. ar) +. (m01.re *. bi) +. (m01.im *. br));
    Array.unsafe_set re y ((m10.re *. ar) -. (m10.im *. ai) +. (m11.re *. br) -. (m11.im *. bi));
    Array.unsafe_set im y ((m10.re *. ai) +. (m10.im *. ar) +. (m11.re *. bi) +. (m11.im *. br));
    x := ((x0 lor bit) + 1) land nf
  done

(* Cross-slab 1q kernel: the pair partner lives one high bit away, i.e.
   in another slab at the *same* local offset — stream both slabs in
   lockstep. Every local offset is a representative. Same four store
   expressions as {!seg_1q}. *)
let seg_1q_pair (are : float array) (aim : float array) (bre : float array)
    (bim : float array) (m00 : Complex.t) (m01 : Complex.t) (m10 : Complex.t)
    (m11 : Complex.t) lo hi =
  for x = lo to hi - 1 do
    let ar = are.(x) and ai = aim.(x) and br = bre.(x) and bi = bim.(x) in
    are.(x) <- (m00.re *. ar) -. (m00.im *. ai) +. (m01.re *. br) -. (m01.im *. bi);
    aim.(x) <- (m00.re *. ai) +. (m00.im *. ar) +. (m01.re *. bi) +. (m01.im *. br);
    bre.(x) <- (m10.re *. ar) -. (m10.im *. ai) +. (m11.re *. br) -. (m11.im *. bi);
    bim.(x) <- (m10.re *. ai) +. (m10.im *. ar) +. (m11.re *. bi) +. (m11.im *. br)
  done

(* [bit_of s q] is the index bit of qubit [q]; a qubit outside the
   state is refused. *)
let bit_of s q =
  if q < 0 || q >= s.n then invalid_arg "Statevector.apply: qubit out of range";
  1 lsl q

let rec mask_in s = function [] -> 0 | q :: qs -> bit_of s q lor mask_in s qs

let apply_1q s q (m00 : Complex.t) (m01 : Complex.t) (m10 : Complex.t)
    (m11 : Complex.t) =
  let bit = bit_of s q in
  if q < s.sb then
    run_reps s ~fixed:bit (fun sl lo hi ->
        seg_1q s.sl_re.(sl) s.sl_im.(sl) bit m00 m01 m10 m11 lo hi)
  else begin
    let hb = 1 lsl (q - s.sb) in
    run_slabs s (fun sl lo hi ->
        if sl land hb = 0 then
          seg_1q_pair s.sl_re.(sl) s.sl_im.(sl)
            s.sl_re.(sl lor hb) s.sl_im.(sl lor hb)
            m00 m01 m10 m11 lo hi)
  end

(* Pair kernels visit each (x, x lxor tbit) pair once: the fixed bits
   are the controls [mask] and the target [tbit], and each
   representative, with [want] ORed in, is the tbit = 0 half of a pair
   whose controls match. *)
(* The float array annotations matter: without them these move-only
   bodies generalize polymorphically and compile to generic (boxing)
   array accesses — ~2.5x slower. *)
let seg_swap (re : float array) (im : float array) mask want tbit lo hi =
  let f = mask lor tbit in
  let nf = lnot f in
  let r = ref (deposit lo f) in
  for _ = lo to hi - 1 do
    let x = !r lor want in
    let y = x lor tbit in
    let xr = Array.unsafe_get re x and xi = Array.unsafe_get im x in
    Array.unsafe_set re x (Array.unsafe_get re y);
    Array.unsafe_set im x (Array.unsafe_get im y);
    Array.unsafe_set re y xr;
    Array.unsafe_set im y xi;
    r := ((!r lor f) + 1) land nf
  done

(* Cross-slab controlled-swap: the target bit selects the partner slab;
   any control bits split into a slab-index condition (checked once per
   pair of slabs) and a local mask, whose representatives the two slabs
   share. Pure moves — exact. *)
let seg_swap_pair (are : float array) (aim : float array) (bre : float array)
    (bim : float array) mask want lo hi =
  let nf = lnot mask in
  let r = ref (deposit lo mask) in
  for _ = lo to hi - 1 do
    let x = !r lor want in
    let xr = Array.unsafe_get are x and xi = Array.unsafe_get aim x in
    Array.unsafe_set are x (Array.unsafe_get bre x);
    Array.unsafe_set aim x (Array.unsafe_get bim x);
    Array.unsafe_set bre x xr;
    Array.unsafe_set bim x xi;
    r := ((!r lor mask) + 1) land nf
  done

(* The mask and want split into a slab-index half (checked once per
   slab) and a local half. No index matches a [want] outside the mask:
   that is a no-op. *)
let swap_pairs s ~mask ~want ~tbit =
  let mlo = mask land s.smask and mhi = mask lsr s.sb in
  let wlo = want land s.smask and whi = want lsr s.sb in
  if want land lnot mask <> 0 then ()
  else if tbit <= s.smask then
    run_reps s ~fixed:(mlo lor tbit) (fun sl lo hi ->
        if sl land mhi = whi then
          seg_swap s.sl_re.(sl) s.sl_im.(sl) mlo wlo tbit lo hi)
  else begin
    let hb = tbit lsr s.sb in
    run_reps s ~fixed:mlo (fun sl lo hi ->
        if sl land hb = 0 && sl land mhi = whi then
          seg_swap_pair s.sl_re.(sl) s.sl_im.(sl)
            s.sl_re.(sl lor hb) s.sl_im.(sl lor hb)
            mlo wlo lo hi)
  end

(* A phase on the indices matching [want] on [mask]: the fixed bits are
   [mask], and [want] ORed into each representative is one index to
   multiply. *)
let seg_phase (re : float array) (im : float array) mask want pre pim lo hi =
  let nf = lnot mask in
  let r = ref (deposit lo mask) in
  for _ = lo to hi - 1 do
    let x = !r lor want in
    let xr = Array.unsafe_get re x and xi = Array.unsafe_get im x in
    Array.unsafe_set re x ((pre *. xr) -. (pim *. xi));
    Array.unsafe_set im x ((pre *. xi) +. (pim *. xr));
    r := ((!r lor mask) + 1) land nf
  done

let phase_on s ~mask ~want (p : Complex.t) =
  (* diagonal: never crosses slabs — the slab-index half of the mask
     just gates which slabs are touched at all; a [want] outside the
     mask matches no index *)
  let mlo = mask land s.smask and mhi = mask lsr s.sb in
  let wlo = want land s.smask and whi = want lsr s.sb in
  if want land lnot mask = 0 then
    run_reps s ~fixed:mlo (fun sl lo hi ->
        if sl land mhi = whi then
          seg_phase s.sl_re.(sl) s.sl_im.(sl) mlo wlo p.re p.im lo hi)

(* Swap = visit the (a=1, b=0) pattern once, exchange with (a=0, b=1):
   both bits are fixed, a representative with [ab] ORed in is the first
   index and with [bb] ORed in the second. *)
let seg_swap2 (re : float array) (im : float array) ab bb lo hi =
  let f = ab lor bb in
  let nf = lnot f in
  let r = ref (deposit lo f) in
  for _ = lo to hi - 1 do
    let x = !r lor ab and y = !r lor bb in
    let xr = Array.unsafe_get re x and xi = Array.unsafe_get im x in
    Array.unsafe_set re x (Array.unsafe_get re y);
    Array.unsafe_set im x (Array.unsafe_get im y);
    Array.unsafe_set re y xr;
    Array.unsafe_set im y xi;
    r := ((!r lor f) + 1) land nf
  done

(* SWAP with at least one qubit above the slab bit: rare enough (plans
   fuse SWAPs into permutation blocks) that a generic walk over the
   global representatives via the accessors is fine. Pure moves — exact,
   and pairs are disjoint so chunking stays deterministic. *)
let seg_swap2_g s ab bb lo hi =
  let f = ab lor bb in
  let nf = lnot f in
  let r = ref (deposit lo f) in
  for _ = lo to hi - 1 do
    let x = !r lor ab and y = !r lor bb in
    let xr = get_re s x and xi = get_im s x in
    set_re s x (get_re s y);
    set_im s x (get_im s y);
    set_re s y xr;
    set_im s y xi;
    r := ((!r lor f) + 1) land nf
  done

let apply_swap s ab bb =
  if ab <= s.smask && bb <= s.smask then
    run_reps s ~fixed:(ab lor bb) (fun sl lo hi ->
        seg_swap2 s.sl_re.(sl) s.sl_im.(sl) ab bb lo hi)
  else run_range s (size s lsr Logic.Bitops.popcount (ab lor bb)) (seg_swap2_g s ab bb)

let c0 = Complex.zero
let ci = Complex.i
let cm1 = Complex.{ re = -1.; im = 0. }
let cmi = Complex.{ re = 0.; im = -1. }
let sqrt2inv = 1. /. sqrt 2.
let ch = Complex.{ re = sqrt2inv; im = 0. }
let chm = Complex.{ re = -.sqrt2inv; im = 0. }
let omega = Complex.{ re = sqrt2inv; im = sqrt2inv } (* e^{iπ/4} *)
let omega_bar = Complex.{ re = sqrt2inv; im = -.sqrt2inv }

let mask_of qs = List.fold_left (fun m q -> m lor (1 lsl q)) 0 qs

(* a phase on the basis states with qubit [q] set *)
let phase_on_qubit s q p =
  let b = bit_of s q in
  phase_on s ~mask:b ~want:b p

(** [apply s g] applies one gate in place. Raises [Invalid_argument]
    when a qubit of [g] lies outside the state. *)
let apply s (g : Gate.t) =
  match g with
  | Gate.X q -> swap_pairs s ~mask:0 ~want:0 ~tbit:(bit_of s q)
  | Gate.Y q -> apply_1q s q c0 cmi ci c0
  | Gate.Z q -> phase_on_qubit s q cm1
  | Gate.S q -> phase_on_qubit s q ci
  | Gate.Sdg q -> phase_on_qubit s q cmi
  | Gate.T q -> phase_on_qubit s q omega
  | Gate.Tdg q -> phase_on_qubit s q omega_bar
  | Gate.Rz (a, q) ->
      (* rz(θ) = diag(e^{-iθ/2}, e^{iθ/2}) *)
      let h = a /. 2. in
      let bit = bit_of s q in
      phase_on s ~mask:bit ~want:0 Complex.{ re = cos h; im = -.sin h };
      phase_on s ~mask:bit ~want:bit Complex.{ re = cos h; im = sin h }
  | Gate.H q -> apply_1q s q ch ch ch chm
  | Gate.Cnot (c, t) ->
      let m = bit_of s c in
      swap_pairs s ~mask:m ~want:m ~tbit:(bit_of s t)
  | Gate.Cz (a, b) ->
      let m = bit_of s a lor bit_of s b in
      phase_on s ~mask:m ~want:m cm1
  | Gate.Swap (a, b) -> apply_swap s (bit_of s a) (bit_of s b)
  | Gate.Ccx (a, b, t) ->
      let m = bit_of s a lor bit_of s b in
      swap_pairs s ~mask:m ~want:m ~tbit:(bit_of s t)
  | Gate.Ccz (a, b, c) ->
      let m = bit_of s a lor bit_of s b lor bit_of s c in
      phase_on s ~mask:m ~want:m cm1
  | Gate.Mcx (cs, t) ->
      let m = mask_in s cs in
      swap_pairs s ~mask:m ~want:m ~tbit:(bit_of s t)
  | Gate.Mcz qs ->
      let m = mask_in s qs in
      phase_on s ~mask:m ~want:m cm1

(* --- deterministic parallel reductions --- *)

(* Reductions chunk the *global* index space into a fixed number of
   blocks (independent of pool width and shard layout), sum each block
   left-to-right — walking its slab pieces in ascending global order —
   and combine the per-block partials in Par's fixed pairwise-tree
   order. The float summation order is therefore a pure function of the
   state size: any jobs × shard-bits combination produces bit-identical
   sums. *)
let reduce_blocks = 256

let tree_sum = Par.tree_sum

(* Block partials: one running accumulator (a 1-slot array, not a ref:
   float ref stores box per iteration) carried across the block's slab
   pieces in global order, so the addition sequence is the same for
   every slab size. *)
let seg_sum2 s lo hi =
  let acc = [| 0. |] in
  iter_pieces s lo hi (fun sl _base lo_l hi_l ->
      let re = s.sl_re.(sl) and im = s.sl_im.(sl) in
      for x = lo_l to hi_l - 1 do
        acc.(0) <- acc.(0) +. (re.(x) *. re.(x)) +. (im.(x) *. im.(x))
      done);
  acc.(0)

let seg_sum2_bit s bit lo hi =
  let acc = [| 0. |] in
  iter_pieces s lo hi (fun sl base lo_l hi_l ->
      let re = s.sl_re.(sl) and im = s.sl_im.(sl) in
      for x = lo_l to hi_l - 1 do
        if (base lor x) land bit <> 0 then
          acc.(0) <- acc.(0) +. (re.(x) *. re.(x)) +. (im.(x) *. im.(x))
      done);
  acc.(0)

(* Fixed-chunk parallel sum of [seg lo hi] over [0, sz). Small states
   keep the plain sequential scan (also the exact historical order). *)
let reduce_sum sz (seg : int -> int -> float) =
  if sz <= par_threshold then seg 0 sz
  else
    let k = reduce_blocks in
    Par.sum_blocks (Par.global ()) ~blocks:k (fun i ->
        seg (sz * i / k) (sz * (i + 1) / k))

(** [norm2 s] is the total probability (should stay 1 within rounding).
    Chunked tree sum above {!par_threshold}; bit-identical at any
    [--jobs] and any shard-bits setting. *)
let norm2 s = reduce_sum (size s) (seg_sum2 s)

(** [prob_of_qubit s q] is the probability of reading 1 on qubit [q]. *)
let prob_of_qubit s q = reduce_sum (size s) (seg_sum2_bit s (1 lsl q))

(* --- diagonal runs --- *)

(* One multiplicative term of a diagonal gate: amplitudes whose index
   matches [want] on [mask] pick up the phase (pre + i·pim). *)
type dterm = { mask : int; want : int; pre : float; pim : float }

let dterm mask want (p : Complex.t) = { mask; want; pre = p.re; pim = p.im }

(* The phase terms of a diagonal gate (diagonal gates all commute, so any
   run of them coalesces into one sweep over these terms). *)
let dterms_of_gate g =
  let one_hot q p = [ dterm (1 lsl q) (1 lsl q) p ] in
  match g with
  | Gate.Z q -> Some (one_hot q cm1)
  | Gate.S q -> Some (one_hot q ci)
  | Gate.Sdg q -> Some (one_hot q cmi)
  | Gate.T q -> Some (one_hot q omega)
  | Gate.Tdg q -> Some (one_hot q omega_bar)
  | Gate.Rz (a, q) ->
      let h = a /. 2. in
      let bit = 1 lsl q in
      Some
        [ dterm bit 0 Complex.{ re = cos h; im = -.sin h };
          dterm bit bit Complex.{ re = cos h; im = sin h } ]
  | Gate.Cz (a, b) ->
      let m = (1 lsl a) lor (1 lsl b) in
      Some [ dterm m m cm1 ]
  | Gate.Ccz (a, b, c) ->
      let m = mask_of [ a; b; c ] in
      Some [ dterm m m cm1 ]
  | Gate.Mcz qs ->
      let m = mask_of qs in
      Some [ dterm m m cm1 ]
  | _ -> None

(* One sweep applying a whole run of diagonal gates. The combined phase of
   index [x] is a product over matching terms; terms whose mask lies
   entirely in the low or high half of the index bits are precomputed
   into per-half lookup tables of size O(√2^n), so the sweep itself is
   phase(x) = lo[x low bits] · hi[x high bits] · (rare straddling terms)
   — two complex multiplies per amplitude however long the run is, and
   one memory pass instead of one per gate. Amplitudes whose combined
   phase is exactly 1 are not written, so untouched entries keep their
   exact values (basis states stay exact). All arithmetic is on unboxed
   floats — no [Complex.t] in the inner loop. Writes are slab-local;
   the tables are indexed by the global index [gx = base lor x]. *)
let seg_phase_sweep (re : float array) (im : float array) lo_re lo_im hi_re
    hi_im half_mask h (straddling : dterm array) base lo hi =
  let ns = Array.length straddling in
  (* 2-slot float array, not refs: ref assignment would box per store *)
  let acc = [| 1.; 0. |] in
  for x = lo to hi - 1 do
    let gx = base lor x in
    let l = gx land half_mask and g = gx lsr h in
    let ar = Array.unsafe_get lo_re l and ai = Array.unsafe_get lo_im l in
    let br = Array.unsafe_get hi_re g and bi = Array.unsafe_get hi_im g in
    acc.(0) <- (ar *. br) -. (ai *. bi);
    acc.(1) <- (ar *. bi) +. (ai *. br);
    for t = 0 to ns - 1 do
      let tm = Array.unsafe_get straddling t in
      if gx land tm.mask = tm.want then begin
        let r = acc.(0) and i = acc.(1) in
        acc.(0) <- (r *. tm.pre) -. (i *. tm.pim);
        acc.(1) <- (r *. tm.pim) +. (i *. tm.pre)
      end
    done;
    let pr = acc.(0) and pi = acc.(1) in
    if not (pr = 1. && pi = 0.) then begin
      let r = re.(x) and i = im.(x) in
      re.(x) <- (pr *. r) -. (pi *. i);
      im.(x) <- (pr *. i) +. (pi *. r)
    end
  done

(* A fully prepared diagonal sweep: the per-half phase tables plus any
   straddling terms. Building one is O(√2^n · terms); the plan layer
   builds each sweep once and replays it across shots. *)
type sweep = {
  lo_re : float array;
  lo_im : float array;
  hi_re : float array;
  hi_im : float array;
  half_mask : int;
  h : int;
  straddling : dterm array;
}

let sweep_of_terms n (terms : dterm array) =
  let h = (n + 1) / 2 in
  let lo_sz = 1 lsl h and hi_sz = 1 lsl (n - h) in
  let half_mask = lo_sz - 1 in
  let lo_re = Array.make lo_sz 1. and lo_im = Array.make lo_sz 0. in
  let hi_re = Array.make hi_sz 1. and hi_im = Array.make hi_sz 0. in
  let fold_into tre tim tsz mask want pre pim =
    for i = 0 to tsz - 1 do
      if i land mask = want then begin
        let r = tre.(i) and j = tim.(i) in
        tre.(i) <- (r *. pre) -. (j *. pim);
        tim.(i) <- (r *. pim) +. (j *. pre)
      end
    done
  in
  let straddling = ref [] in
  Array.iter
    (fun t ->
      if t.mask land half_mask = t.mask then
        fold_into lo_re lo_im lo_sz t.mask t.want t.pre t.pim
      else if t.mask land lnot half_mask = t.mask then
        fold_into hi_re hi_im hi_sz (t.mask lsr h) (t.want lsr h) t.pre t.pim
      else straddling := t :: !straddling)
    (* multi-qubit masks spanning both halves (a CZ across the midline)
       stay as per-index checks; they are rare and few *)
    terms;
  { lo_re; lo_im; hi_re; hi_im; half_mask; h;
    straddling = Array.of_list (List.rev !straddling) }

let apply_sweep s sw =
  run_slabs s (fun sl lo hi ->
      seg_phase_sweep s.sl_re.(sl) s.sl_im.(sl) sw.lo_re sw.lo_im sw.hi_re
        sw.hi_im sw.half_mask sw.h sw.straddling (sl lsl s.sb) lo hi)

(* A run of diagonal (and X) gates becomes one sweep when it holds at
   least this many diagonal gates, CZ/CCZ/MCZ counted like 1-qubit
   phases. Inside a plan the alternative is not the bare kernels but a
   monomial or diagonal block: a 16-bit [K_diag] tests 16 bits per
   amplitude (about 265 ms on one core for the inner product's 11 CZs
   at 22 qubits), while a sweep folds into the next block's gather for
   free. Shorter runs (QFT's length-2 Rz runs) stay in blocks. *)
let min_diag_run = 3

let is_diag = function
  | Gate.Z _ | Gate.S _ | Gate.Sdg _ | Gate.T _ | Gate.Tdg _ | Gate.Rz _ | Gate.Cz _
  | Gate.Ccz _ | Gate.Mcz _ ->
      true
  | _ -> false

(** [amplitude_damp s q ~gamma ~jump] applies one quantum-trajectory branch
    of the amplitude-damping (T1) channel on qubit [q]:
    with [jump] the excitation decays ([K1 = √γ |0⟩⟨1|]), otherwise the
    no-jump Kraus operator is applied; either way the state is
    renormalized. The caller samples [jump] with probability
    [γ · prob_of_qubit s q]. Cold path (noisy trajectories run at small
    widths), so it walks global indices through the accessors — the
    arithmetic is layout-independent. *)
let amplitude_damp s q ~gamma ~jump =
  let bit = 1 lsl q in
  let p1 = prob_of_qubit s q in
  if jump then begin
    let norm = sqrt (gamma *. p1) in
    if norm < 1e-300 then invalid_arg "Statevector.amplitude_damp: impossible jump";
    for x = 0 to size s - 1 do
      if x land bit = 0 then begin
        let y = x lor bit in
        set_re s x (sqrt gamma *. get_re s y /. norm);
        set_im s x (sqrt gamma *. get_im s y /. norm);
        set_re s y 0.;
        set_im s y 0.
      end
    done
  end
  else begin
    let keep = sqrt (1. -. gamma) in
    let norm = sqrt (1. -. (gamma *. p1)) in
    for x = 0 to size s - 1 do
      if x land bit <> 0 then begin
        set_re s x (keep *. get_re s x /. norm);
        set_im s x (keep *. get_im s x /. norm)
      end
      else begin
        set_re s x (get_re s x /. norm);
        set_im s x (get_im s x /. norm)
      end
    done
  end
