(** Sparse state vectors: a state stored as its support only, basis index
    → amplitude.

    The oracle circuits of the paper's flow (reversible networks lowered
    to Clifford+T) keep a narrow state: most of their gates are
    permutations with phases, so the state reached from |0…0⟩ holds a
    handful of nonzero amplitudes whatever the width. Here a gate costs
    the support it touches, not [2^n]. Every gate except H is monomial
    (one nonzero entry per row and column) and updates the entries in
    place: the index is remapped and the amplitude multiplied by a
    phase. Only H merges partners, through a small hash over the pair
    bases.

    Each update performs the same float operations per amplitude as the
    dense kernels ({!Sv_kernels}), with an absent entry standing for an
    exact zero. Adding or multiplying such a zero changes no nonzero
    value, so the amplitudes equal those of a gate-by-gate
    {!Statevector.apply} bit for bit (up to the sign of exact zeros,
    which no probability sees). The reductions ({!prob_of_qubit},
    {!sample}, {!most_likely}) walk the support in ascending index order
    and reproduce the dense summation order, so a noisy shot draws the
    same outcome on either representation. Entries that cancel to an
    exact zero are dropped. *)

type t = {
  n : int;
  mutable len : int; (* entries in use *)
  mutable idx : int array; (* distinct basis indices, in no order *)
  mutable re : float array;
  mutable im : float array;
}

(** [init n] is |0…0⟩ on [n] qubits. *)
let init n =
  if n < 1 || n > Sys.int_size - 2 then invalid_arg "Sparse.init: bad qubit count";
  { n; len = 1; idx = [| 0 |]; re = [| 1. |]; im = [| 0. |] }

(** [support s] is the number of stored (nonzero) amplitudes. *)
let support s = s.len

(** [budget n] is the support past which callers switch an [n]-qubit
    state to the dense representation: [2^n / 16]. Timed on one core at
    12–17 qubits, a gate mix of 90% monomial gates and 10% H (the share
    in the service's oracles) costs 0.15–0.35 times as much sparse as
    dense at a support of [2^n / 16], 0.36–1.5 times at [2^n / 8] and
    0.7–1.6 times at [2^n / 4]: an H through the hash costs 50–250 ns an
    entry against 1–5 ns an amplitude for a dense pass. *)
let budget n = (1 lsl n) lsr 4

(* --- monomial gates --- *)

(* Multiply the entries whose index matches [mask]/[want] by [p]: the
   products of the dense phase kernel. *)
let phase s ~mask ~want (p : Complex.t) =
  for i = 0 to s.len - 1 do
    if s.idx.(i) land mask = want then begin
      let r = s.re.(i) and m = s.im.(i) in
      s.re.(i) <- (p.re *. r) -. (p.im *. m);
      s.im.(i) <- (p.re *. m) +. (p.im *. r)
    end
  done

(* Flip [tbit] in every index that matches [mask]/[want]. *)
let flip s ~mask ~want tbit =
  for i = 0 to s.len - 1 do
    let x = s.idx.(i) in
    if x land mask = want then s.idx.(i) <- x lxor tbit
  done

let swap s a b =
  let ab = (1 lsl a) lor (1 lsl b) in
  for i = 0 to s.len - 1 do
    let x = s.idx.(i) in
    if (x lsr a) land 1 <> (x lsr b) land 1 then s.idx.(i) <- x lxor ab
  done

(* Y = [[0, -i], [i, 0]]: |0⟩ → i|1⟩, |1⟩ → -i|0⟩. The dense kernel's
   zero terms drop out exactly. *)
let pauli_y s q =
  let bit = 1 lsl q in
  for i = 0 to s.len - 1 do
    let x = s.idx.(i) and r = s.re.(i) and m = s.im.(i) in
    s.idx.(i) <- x lxor bit;
    if x land bit = 0 then begin
      s.re.(i) <- -.m;
      s.im.(i) <- r
    end
    else begin
      s.re.(i) <- m;
      s.im.(i) <- -.r
    end
  done

(* --- H: the one gate that merges entries --- *)

(* Bases of the pairs {x, x lor bit}, through an open-addressing table
   sized to a power of two at least twice the support. *)
let slot_of keys mask b =
  let h = ref ((b * 0x2545F4914F6CDD1D) lsr 17 land mask) in
  while keys.(!h) <> -1 && keys.(!h) <> b do
    h := (!h + 1) land mask
  done;
  !h

let hadamard s q =
  let bit = 1 lsl q in
  let len = s.len in
  let cap = ref 4 in
  while !cap < 2 * len do
    cap := 2 * !cap
  done;
  let mask = !cap - 1 in
  let keys = Array.make !cap (-1) and pair = Array.make !cap 0 in
  (* pair p gathers its two members at slots 2p (qubit [q] clear) and
     2p + 1 (set); an absent member stays an exact zero *)
  let idx = Array.make (2 * len) 0 in
  let re = Array.make (2 * len) 0. and im = Array.make (2 * len) 0. in
  let pairs = ref 0 in
  for i = 0 to len - 1 do
    let x = s.idx.(i) in
    let b = x land lnot bit in
    let h = slot_of keys mask b in
    let p =
      if keys.(h) = b then pair.(h)
      else begin
        keys.(h) <- b;
        pair.(h) <- !pairs;
        idx.(2 * !pairs) <- b;
        idx.((2 * !pairs) + 1) <- b lor bit;
        incr pairs;
        !pairs - 1
      end
    in
    let j = if x land bit = 0 then 2 * p else (2 * p) + 1 in
    re.(j) <- s.re.(i);
    im.(j) <- s.im.(i)
  done;
  (* the four store expressions of the dense 2×2 kernel, then the
     exact zeros dropped *)
  let m00 = Statevector.ch and m01 = Statevector.ch in
  let m10 = Statevector.ch and m11 = Statevector.chm in
  let out = ref 0 in
  let emit x r m =
    if r <> 0. || m <> 0. then begin
      idx.(!out) <- x;
      re.(!out) <- r;
      im.(!out) <- m;
      incr out
    end
  in
  for p = 0 to !pairs - 1 do
    let x0 = idx.(2 * p) and x1 = idx.((2 * p) + 1) in
    let ar = re.(2 * p) and ai = im.(2 * p) in
    let br = re.((2 * p) + 1) and bi = im.((2 * p) + 1) in
    emit x0
      ((m00.re *. ar) -. (m00.im *. ai) +. (m01.re *. br) -. (m01.im *. bi))
      ((m00.re *. ai) +. (m00.im *. ar) +. (m01.re *. bi) +. (m01.im *. br));
    emit x1
      ((m10.re *. ar) -. (m10.im *. ai) +. (m11.re *. br) -. (m11.im *. bi))
      ((m10.re *. ai) +. (m10.im *. ar) +. (m11.re *. bi) +. (m11.im *. br))
  done;
  s.len <- !out;
  s.idx <- idx;
  s.re <- re;
  s.im <- im

(** [apply s g] applies one gate in place. *)
let apply s (g : Gate.t) =
  match g with
  | Gate.X q -> flip s ~mask:0 ~want:0 (1 lsl q)
  | Gate.Y q -> pauli_y s q
  | Gate.Z q -> phase s ~mask:(1 lsl q) ~want:(1 lsl q) Statevector.cm1
  | Gate.S q -> phase s ~mask:(1 lsl q) ~want:(1 lsl q) Statevector.ci
  | Gate.Sdg q -> phase s ~mask:(1 lsl q) ~want:(1 lsl q) Statevector.cmi
  | Gate.T q -> phase s ~mask:(1 lsl q) ~want:(1 lsl q) Statevector.omega
  | Gate.Tdg q -> phase s ~mask:(1 lsl q) ~want:(1 lsl q) Statevector.omega_bar
  | Gate.Rz (a, q) ->
      let h = a /. 2. and bit = 1 lsl q in
      phase s ~mask:bit ~want:0 Complex.{ re = cos h; im = -.sin h };
      phase s ~mask:bit ~want:bit Complex.{ re = cos h; im = sin h }
  | Gate.H q -> hadamard s q
  | Gate.Cnot (c, t) -> flip s ~mask:(1 lsl c) ~want:(1 lsl c) (1 lsl t)
  | Gate.Cz (a, b) ->
      let m = (1 lsl a) lor (1 lsl b) in
      phase s ~mask:m ~want:m Statevector.cm1
  | Gate.Swap (a, b) -> swap s a b
  | Gate.Ccx (a, b, t) ->
      let m = (1 lsl a) lor (1 lsl b) in
      flip s ~mask:m ~want:m (1 lsl t)
  | Gate.Ccz (a, b, c) ->
      let m = Statevector.mask_of [ a; b; c ] in
      phase s ~mask:m ~want:m Statevector.cm1
  | Gate.Mcx (cs, t) ->
      let m = Statevector.mask_of cs in
      flip s ~mask:m ~want:m (1 lsl t)
  | Gate.Mcz qs ->
      let m = Statevector.mask_of qs in
      phase s ~mask:m ~want:m Statevector.cm1

(* --- readout --- *)

(* Positions of the entries in ascending index order: the dense
   reductions' summation order. *)
let ascending s =
  let o = Array.init s.len Fun.id in
  Array.sort (fun a b -> Int.compare s.idx.(a) s.idx.(b)) o;
  o

(** [prob s x] is the outcome probability of basis state [x]. *)
let prob s x =
  let p = ref 0. in
  for i = 0 to s.len - 1 do
    if s.idx.(i) = x then p := (s.re.(i) *. s.re.(i)) +. (s.im.(i) *. s.im.(i))
  done;
  !p

(** [prob_of_qubit s q] is the probability of reading 1 on qubit [q],
    summed like {!Statevector.prob_of_qubit}: in ascending index order,
    and above {!Statevector.par_threshold} amplitudes per fixed block,
    the blocks then combined by the same pairwise tree. *)
let prob_of_qubit s q =
  let bit = 1 lsl q in
  let add acc i = acc +. (s.re.(i) *. s.re.(i)) +. (s.im.(i) *. s.im.(i)) in
  let o = ascending s in
  let size = 1 lsl s.n in
  if size <= Statevector.par_threshold then
    Array.fold_left (fun acc i -> if s.idx.(i) land bit <> 0 then add acc i else acc) 0. o
  else begin
    let k = Statevector.reduce_blocks in
    let parts = Array.make k 0. in
    Array.iter
      (fun i ->
        let x = s.idx.(i) in
        if x land bit <> 0 then begin
          (* block [b] covers [size * b / k, size * (b + 1) / k) *)
          let b = x / (size / k) in
          parts.(b) <- add parts.(b) i
        end)
      o;
    Par.tree_sum parts
  end

(** [amplitude_damp s q ~gamma ~jump] is {!Statevector.amplitude_damp}
    on the support: with [jump] every entry with qubit [q] set decays to
    its partner, otherwise the excited entries shrink by [√(1-γ)]; the
    state is renormalized either way. *)
let amplitude_damp s q ~gamma ~jump =
  let bit = 1 lsl q in
  let p1 = prob_of_qubit s q in
  if jump then begin
    let norm = sqrt (gamma *. p1) in
    if norm < 1e-300 then invalid_arg "Sparse.amplitude_damp: impossible jump";
    let out = ref 0 in
    for i = 0 to s.len - 1 do
      let x = s.idx.(i) in
      if x land bit <> 0 then begin
        s.idx.(!out) <- x lxor bit;
        s.re.(!out) <- sqrt gamma *. s.re.(i) /. norm;
        s.im.(!out) <- sqrt gamma *. s.im.(i) /. norm;
        incr out
      end
    done;
    s.len <- !out
  end
  else begin
    let keep = sqrt (1. -. gamma) in
    let norm = sqrt (1. -. (gamma *. p1)) in
    for i = 0 to s.len - 1 do
      if s.idx.(i) land bit <> 0 then begin
        s.re.(i) <- keep *. s.re.(i) /. norm;
        s.im.(i) <- keep *. s.im.(i) /. norm
      end
      else begin
        s.re.(i) <- s.re.(i) /. norm;
        s.im.(i) <- s.im.(i) /. norm
      end
    done
  end

(** [sample st s] draws one outcome of all qubits: the first index, in
    ascending order, at which the running probability passes a uniform
    draw — the draw and the sum of {!Statevector.sample}, so both
    representations of one state return the same outcome. *)
let sample st s =
  let r = Random.State.float st 1. in
  let o = ascending s in
  let acc = ref 0. and out = ref ((1 lsl s.n) - 1) and k = ref 0 in
  while !k < s.len do
    let i = o.(!k) in
    acc := !acc +. ((s.re.(i) *. s.re.(i)) +. (s.im.(i) *. s.im.(i)));
    if r < !acc then begin
      out := s.idx.(i);
      k := s.len
    end
    else incr k
  done;
  !out

(** A cumulative distribution over the support, for many draws from one
    state: the running sums of {!Statevector.sampler} ({!Statevector.cdf_at})
    at the support indices, ascending. The dense sums add an exact zero
    at every other index, which leaves each running sum unchanged, so
    both hold the same values there; the sums follow the dense order (one running
    sum, or above {!Statevector.par_threshold} amplitudes one per fixed
    block, offset by the sum of the blocks before it). *)
type sampler = { width : int; keys : int array; cdf : float array }

let sampler s =
  let o = ascending s in
  let keys = Array.map (fun i -> s.idx.(i)) o in
  let cdf = Array.make s.len 0. in
  (* the dense sum's association: (acc + re²) + im² *)
  let add acc i = acc +. (s.re.(i) *. s.re.(i)) +. (s.im.(i) *. s.im.(i)) in
  let size = 1 lsl s.n in
  let block =
    if size <= Statevector.par_threshold then fun _ -> 0
    else
      let w = size / Statevector.reduce_blocks in
      fun x -> x / w
  in
  let parts = Array.make Statevector.reduce_blocks 0. in
  Array.iter (fun i -> parts.(block s.idx.(i)) <- add parts.(block s.idx.(i)) i) o;
  let offs = Array.make Statevector.reduce_blocks 0. in
  for b = 1 to Statevector.reduce_blocks - 1 do
    offs.(b) <- offs.(b - 1) +. parts.(b - 1)
  done;
  let acc = ref 0. and cur = ref (-1) in
  Array.iteri
    (fun k i ->
      let b = block keys.(k) in
      if b <> !cur then begin
        cur := b;
        acc := offs.(b)
      end;
      acc := add !acc i;
      cdf.(k) <- !acc)
    o;
  { width = s.n; keys; cdf }

(** [sample_with smp st] draws one outcome like
    {!Statevector.sample_with} on the dense table: the first index whose
    cumulative probability passes the draw, or the last basis state. *)
let sample_with smp st =
  let r = Random.State.float st 1. in
  let len = Array.length smp.cdf in
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if smp.cdf.(mid) > r then hi := mid else lo := mid + 1
  done;
  if !lo < len then smp.keys.(!lo) else (1 lsl smp.width) - 1

(** [most_likely s] is the basis state with the largest probability, the
    smallest such index on ties, like {!Statevector.most_likely}. *)
let most_likely s =
  let best = ref 0 and best_p = ref (prob s 0) in
  Array.iter
    (fun i ->
      let p = (s.re.(i) *. s.re.(i)) +. (s.im.(i) *. s.im.(i)) in
      if p > !best_p then begin
        best := s.idx.(i);
        best_p := p
      end)
    (ascending s);
  !best

(** [to_statevector s] is the dense state with the same amplitudes.
    Raises {!Statevector.Unsupported} past the statevector cap. *)
let to_statevector s =
  let v = Statevector.init s.n in
  Statevector.set_re v 0 0.;
  for i = 0 to s.len - 1 do
    Statevector.set_re v s.idx.(i) s.re.(i);
    Statevector.set_im v s.idx.(i) s.im.(i)
  done;
  v

(** [run ~budget circuit] simulates [circuit] from |0…0⟩, or returns
    [None] as soon as the support passes [budget]. *)
let run ~budget circuit =
  let s = init (Circuit.num_qubits circuit) in
  let exception Over in
  match
    Circuit.iter
      (fun g ->
        apply s g;
        if s.len > budget then raise Over)
      circuit
  with
  | () -> if s.len > budget then None else Some s
  | exception Over -> None
