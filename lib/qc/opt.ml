(** Peephole optimization on quantum circuits.

    Complements {!Tpar}: cancels adjacent inverse pairs (H·H, X·X,
    CNOT·CNOT, S·S†, …), fuses adjacent rotations on the same qubit
    (T·T = S, S·S = Z, Rz·Rz), and lets gates commute across gates acting
    on disjoint qubits to meet their partners.

    One left-to-right pass does it. Every gate that survives so far keeps
    the slot of its arrival position, and each qubit keeps a stack of the
    live slots that touch it. The survivors never contain a pair that
    could fuse, so an arriving gate can only fuse with the gate on top of
    all its qubits' stacks, or, for a phase gate on q, with a member of
    the run of phase gates on top of q's stack (phase gates on one qubit
    commute). It takes the earliest member whose fusion leaves at most one
    gate; the fused gate takes the arriving gate's slot and arrives again.
    A run of survivors holds at most three gates (any two Rz fuse, and
    two other phase gates only stay apart when their eighths sum to 3 or
    5), so each arrival costs O(qubits of the gate). *)

open Gate

(* Diagonal single-qubit phase gates commute with each other on the same
   qubit and with controls; we only use same-qubit fusion. [eighths g]
   is the rotation of such a gate in multiples of π/4, or -1. *)
let eighths = function
  | Z _ -> 4
  | S _ -> 2
  | Sdg _ -> 6
  | T _ -> 1
  | Tdg _ -> 7
  | _ -> -1

(* [phase_qubit g] is the qubit of a phase gate, or -1. *)
let phase_qubit = function
  | Z q | S q | Sdg q | T q | Tdg q | Rz (_, q) -> q
  | _ -> -1

(* [inverse a b] is [Gate.equal a (adjoint b)], without building the
   adjoint. *)
let inverse a b =
  match (a, b) with
  | S p, Sdg q | Sdg p, S q | T p, Tdg q | Tdg p, T q -> p = q
  | Rz (x, p), Rz (y, q) -> (x : float) = -.y && p = q
  | (S _ | Sdg _ | T _ | Tdg _ | Rz _), _ | _, (S _ | Sdg _ | T _ | Tdg _ | Rz _) -> false
  | _ -> Gate.equal a b

type rewrite = Keep | Cancel | Fused of Gate.t

(* What gates [a] then [b] (adjacent after commuting) become, when that
   is at most one gate: they cancel, or fuse into one. A fusion that
   gives two gates back (S·T, Z·T: eighths summing to 3 or 5) is no
   rewrite. Allocates only a fused gate. *)
let rewrite a b =
  if inverse a b then Cancel
  else
    let q = phase_qubit a in
    if q < 0 || phase_qubit b <> q then Keep
    else
      let ka = eighths a and kb = eighths b in
      if ka >= 0 && kb >= 0 then
        match (ka + kb) land 7 with
        | 0 -> Cancel
        | 1 -> Fused (T q)
        | 2 -> Fused (S q)
        | 4 -> Fused (Z q)
        | 6 -> Fused (Sdg q)
        | 7 -> Fused (Tdg q)
        | _ -> Keep
      else
        match (a, b) with
        | Rz (x, _), Rz (y, _) ->
            if Float.abs (x +. y) < 1e-12 then Cancel else Fused (Rz (x +. y, q))
        | _ -> Keep

(* The wires of a gate without building its qubit list: [arity g] of
   them, the [i]-th being [wire n g i]. A gate that touches no qubit (an
   [Mcz []]) lives on wire [n]. *)
let arity = function
  | X _ | Y _ | Z _ | H _ | S _ | Sdg _ | T _ | Tdg _ | Rz _ | Mcz [] -> 1
  | Cnot _ | Cz _ | Swap _ -> 2
  | Ccx _ | Ccz _ -> 3
  | Mcx (cs, _) -> List.length cs + 1
  | Mcz qs -> List.length qs

let wire n g i =
  match g with
  | X q | Y q | Z q | H q | S q | Sdg q | T q | Tdg q | Rz (_, q) -> q
  | Cnot (a, b) | Cz (a, b) | Swap (a, b) -> if i = 0 then a else b
  | Ccx (a, b, c) | Ccz (a, b, c) -> if i = 0 then a else if i = 1 then b else c
  | Mcx (cs, t) -> if i < List.length cs then List.nth cs i else t
  | Mcz [] -> n
  | Mcz qs -> List.nth qs i

(** [simplify c] cancels and fuses gates in one pass; the result holds no
    pair of gates that could still fuse. The unitary is preserved
    exactly. Arrivals and removals allocate nothing; a fused gate and
    the output list do. *)
let simplify c =
  let n = Circuit.num_qubits c in
  (* slot p holds the gate that arrived at input position p, or the
     fusion that took its place; [live] marks the survivors *)
  let slots = Circuit.to_array c in
  let live = Bytes.make (Array.length slots) '\000' in
  let stacks = Array.make (n + 1) [||] and depth = Array.make (n + 1) 0 in
  let push s q =
    let d = depth.(q) in
    if d = Array.length stacks.(q) then begin
      let grown = Array.make (max 8 (2 * d)) 0 in
      Array.blit stacks.(q) 0 grown 0 d;
      stacks.(q) <- grown
    end;
    stacks.(q).(d) <- s;
    depth.(q) <- d + 1
  in
  let top q = if depth.(q) = 0 then -1 else stacks.(q).(depth.(q) - 1) in
  (* s sits on top of each of its stacks, or inside the phase run on top *)
  let remove s =
    let g = slots.(s) in
    for i = 0 to arity g - 1 do
      let q = wire n g i in
      let st = stacks.(q) and d = depth.(q) in
      let k = ref (d - 1) in
      while st.(!k) <> s do decr k done;
      Array.blit st (!k + 1) st !k (d - 1 - !k);
      depth.(q) <- d - 1
    done;
    Bytes.set live s '\000'
  in
  (* the slot an arriving gate fuses with, or -1; their fusion is left
     in [fused] *)
  let fused = ref Keep in
  let partner g =
    let q = phase_qubit g in
    if q >= 0 then begin
      let st = stacks.(q) in
      let best = ref (-1) in
      let k = ref (depth.(q) - 1) in
      while !k >= 0 && phase_qubit slots.(st.(!k)) >= 0 do
        (match rewrite slots.(st.(!k)) g with
        | Keep -> ()
        | r ->
            best := st.(!k);
            fused := r);
        decr k
      done;
      !best
    end
    else begin
      let s = top (wire n g 0) in
      let on_top = ref (s >= 0) in
      for i = 1 to arity g - 1 do
        if top (wire n g i) <> s then on_top := false
      done;
      if not !on_top then -1
      else
        match rewrite slots.(s) g with
        | Keep -> -1
        | r ->
            fused := r;
            s
    end
  in
  let rec arrive p g =
    let s = partner g in
    if s < 0 then begin
      slots.(p) <- g;
      Bytes.set live p '\001';
      for i = 0 to arity g - 1 do
        push p (wire n g i)
      done
    end
    else begin
      let r = !fused in
      remove s;
      match r with Fused h -> arrive p h | Cancel | Keep -> ()
    end
  in
  for p = 0 to Array.length slots - 1 do
    arrive p slots.(p)
  done;
  let survivors = ref [] in
  for p = 0 to Array.length slots - 1 do
    if Bytes.get live p = '\001' then survivors := slots.(p) :: !survivors
  done;
  Circuit.of_rev_gates n !survivors
