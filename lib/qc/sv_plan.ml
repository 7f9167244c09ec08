(** Compile-once execution plans (exposed as [Statevector.Plan]).

    {!build} walks a circuit once and emits a flat schedule of kernel
    ops:

    - runs of {e monomial} gates (one nonzero per unitary column:
      X/CNOT/Toffoli/SWAP and every phase gate — everything but H) fuse
      into one permutation-with-phases block of up to
      {!max_mono_qubits} qubits, built {e symbolically} as a basis-state
      table with exact integer/constant arithmetic — classical gates get
      exactly unit phases, and the replay kernel then skips the phase
      multiply entirely. Full-width blocks replay as one out-of-place
      scatter through a precomputed inverse map with sequential writes
      (the state slabs ping-pong with a scratch set); narrower blocks
      gather/scatter disjoint 2^k-amplitude groups in place. Blocks that
      compose to the identity are dropped from the schedule;
    - runs of H on distinct qubits fuse into one Hadamard block
      ({!max_kron_qubits} wide) — same arithmetic as the individual
      passes, k× fewer memory sweeps. Its rounds run radix-4: two
      rounds per pass over quads whose four values stay in registers
      in between, with no per-index test; contiguous bits run in place
      in L1-sized blocks, other bit sets through a gathered group;
      bits above the slab (or, on one slab, the top bits of a block
      too wide to give every domain a group) stream in place across
      whole rows, tile by tile;
    - only when supports genuinely overlap across kinds does a block
      fall back to a general dense unitary, capped at
      {!max_dense_qubits} (8×8, extracted by simulating basis columns —
      the extraction [Unitary.of_circuit] performs, inlined here because
      [Unitary] sits above this module), past which the matvec turns
      compute-bound;
    - long diagonal runs become one separable-table phase sweep with the
      tables prebuilt at plan time; a pending sweep is {e folded into}
      the gather of the next block — or, for a full-width monomial
      block, folded into its phase table {e at build time}, so the
      sweep's memory pass disappears from the schedule entirely;
    - X gates inside a diagonal run join it as a running XOR mask (the
      X frame): X_m·D·X_m is D with each term's condition flipped by m,
      so the run's terms enter the sweep with flipped [want]s and only
      the leftover mask is emitted, as X gates after the sweep. The
      hidden shift's X^s·O_f·X^s thus becomes one sweep folded into
      the next Hadamard pass;
    - dense-matrix entries within 1e-12 of 0/±1 are snapped exact, so
      classical blocks replay with exact arithmetic like the specialized
      kernels they replace.

    Two commuting-block peepholes run at build time (both exact
    commutations, so plans stay within rounding of the unfused
    reference, and plans are pure functions of the circuit, so every
    jobs × shard-bits configuration replays the identical schedule):

    - {!peephole} defers pending Hadamards past monomial gates on
      disjoint qubits, widening monomial runs and merging H layers;
    - a kernel-level clustering pass bubbles commuting kernels into
      ascending highest-touched-bit order, so slab-local kernels group
      together between cross-slab exchange rounds.

    Replay classifies each kernel against the state's shard layout
    ({!Sv_shard}; a flat state is one slab): {e slab-local} kernels (all
    touched qubits below the slab bit, plus every diagonal) run through
    {!Sv_kernels.run_chunks} with zero cross-slab traffic; {e cross-slab}
    kernels stream slab rows in place (high-bit Hadamard rounds, over
    256-column tiles that stay in cache across rounds), scatter
    through the global accessors (rare narrow high-bit blocks), or
    rebuild the state slab-sequentially through the inverse map
    (full-width permutations). Groups, slabs and column chunks are
    disjoint, and every amplitude goes through the same float
    operations in the same order however a kernel is split, so any
    [--jobs] and any shard-bits value is bit-identical. *)

open Sv_kernels

(* Dense blocks cap at 8×8: per amplitude a 2^k-wide matvec costs
   O(2^k) complex multiplies, so k = 3 roughly matches the arithmetic
   of the 1q passes it replaces while making 3x fewer memory passes;
   k = 4 already triples the arithmetic. Dense blocks only form when
   gates actually share qubits — fusing disjoint 1q gates into a
   Kronecker product would multiply arithmetic for nothing. *)
let max_dense_qubits = 3

(* Monomial blocks (one nonzero per matrix column) gather, phase and
   scatter — O(1) per amplitude whatever the width — so CNOT chains
   and similar classical runs fuse very wide. 16 caps the basis table
   at 2^16 entries (512 kB per array). *)
let max_mono_qubits = 16

(* Hadamard runs on distinct qubits fuse into one gather / k-butterfly
   / scatter pass; arithmetic matches the individual passes, so the cap
   only bounds the scratch group (2^16 amplitudes, 512 kB per array —
   matching {!max_mono_qubits}). Wide caps matter: every extra block is
   a full read+write sweep of the state, and at 24+ qubits those sweeps
   dominate the runtime. *)
let max_kron_qubits = 16

(* Building a monomial block costs gates × 2^k basis updates; this
   bounds that product so plan compilation stays a small multiple of
   one unfused execution even for deep circuits. *)
let max_block_work = 1 lsl 22

type kernel =
  | K_gate of Gate.t (* pass-through: single gates, wide MCX/MCZ *)
  | K_sweep of sweep (* long diagonal run, prebuilt half tables *)
  | K_diag of { bits : int array; ph_re : float array; ph_im : float array }
  | K_perm of {
      pre : sweep option; (* diagonal sweep folded into the gather *)
      bits : int array;
      offs : int array;
      perm : int array; (* column -> row of the single nonzero entry *)
      ph : (float array * float array) option; (* per-column phase; None = all 1 *)
    }
  | K_perm_full of {
      (* a monomial block spanning every qubit: one out-of-place pass,
         sequential writes through the inverse map, then slab swap *)
      inv : int array; (* output index -> input index *)
      ph : (float array * float array) option; (* input-indexed phase *)
    }
  | K_had of {
      (* Hadamards on distinct qubits: butterflies in scratch registers *)
      pre : sweep option;
      bits : int array;
      offs : int array;
    }
  | K_dense of {
      pre : sweep option;
      bits : int array;
      offs : int array;
      u_re : float array; (* 2^k × 2^k, row-major *)
      u_im : float array;
    }

type t = {
  n : int;
  ops : kernel array;
  blocks : int; (* fused kernels (dense + diag + perm + sweeps) *)
  fused_gates : int; (* source gates absorbed into fused kernels *)
  source_gates : int;
}

(* Everything except H is monomial in our gate set (diagonal gates
   trivially, X/Y/CNOT/SWAP/CCX/MCX as permutations with phases). *)
let is_monomial = function Gate.H _ -> false | _ -> true

let gate_mask g = mask_of (Gate.qubits g)

let popcount m =
  let c = ref 0 and x = ref m in
  while !x <> 0 do
    x := !x land (!x - 1);
    incr c
  done;
  !c

let bits_of_mask m =
  let bits = Array.make (popcount m) 0 in
  let i = ref 0 and b = ref 0 and x = ref m in
  while !x <> 0 do
    if !x land 1 <> 0 then begin
      bits.(!i) <- !b;
      incr i
    end;
    incr b;
    x := !x lsr 1
  done;
  bits

(* offs.(j) scatters local index j back to the global bit positions.
   Built by doubling: the upper half of each 2^(b+1) prefix is the lower
   half with bits.(b) set, so the table costs O(2^k), not O(k·2^k). *)
let offs_of (bits : int array) =
  let k = Array.length bits in
  let offs = Array.make (1 lsl k) 0 in
  for b = 0 to k - 1 do
    let w = 1 lsl b and bit = 1 lsl bits.(b) in
    for j = 0 to w - 1 do
      Array.unsafe_set offs (w + j) (Array.unsafe_get offs j lor bit)
    done
  done;
  offs

let snap v =
  if Float.abs v < 1e-12 then 0.
  else if Float.abs (v -. 1.) < 1e-12 then 1.
  else if Float.abs (v +. 1.) < 1e-12 then -1.
  else v

(* The block's matrix on its local qubits, by basis-column simulation
   of the remapped gate list. [rev_gates] is in reverse application
   order (the builder's accumulator shape). *)
let block_matrix n (bits : int array) rev_gates =
  let k = Array.length bits in
  let dim = 1 lsl k in
  let local q =
    let r = ref 0 in
    for b = 0 to k - 1 do
      if bits.(b) = q then r := b
    done;
    !r
  in
  let c = Circuit.map_qubits ~n:k local (Circuit.of_rev_gates n rev_gates) in
  let u_re = Array.make (dim * dim) 0. and u_im = Array.make (dim * dim) 0. in
  for col = 0 to dim - 1 do
    let s = make_flat k in
    s.sl_re.(0).(col) <- 1.;
    Circuit.iter (apply s) c;
    for row = 0 to dim - 1 do
      u_re.((row * dim) + col) <- snap s.sl_re.(0).(row);
      u_im.((row * dim) + col) <- snap s.sl_im.(0).(row)
    done
  done;
  (u_re, u_im)

(* Diagonal / permutation / general, from the matrix itself (robust to
   cancellations the gate list hides: H;Z;H classifies as the X-type
   permutation it is). Off-diagonal zeros are exact after snapping;
   permutation entries are unit-magnitude within 1e-9. *)
type block_class =
  | B_diag of float array * float array
  | B_perm of int array * float array * float array
  | B_dense

let classify dim (u_re : float array) (u_im : float array) =
  let diagonal = ref true in
  (try
     for row = 0 to dim - 1 do
       for col = 0 to dim - 1 do
         if row <> col then begin
           let idx = (row * dim) + col in
           if u_re.(idx) <> 0. || u_im.(idx) <> 0. then begin
             diagonal := false;
             raise Exit
           end
         end
       done
     done
   with Exit -> ());
  if !diagonal then
    B_diag
      ( Array.init dim (fun j -> u_re.((j * dim) + j)),
        Array.init dim (fun j -> u_im.((j * dim) + j)) )
  else begin
    let perm = Array.make dim (-1) in
    let ph_re = Array.make dim 0. and ph_im = Array.make dim 0. in
    let ok = ref true in
    for col = 0 to dim - 1 do
      for row = 0 to dim - 1 do
        let idx = (row * dim) + col in
        let m = (u_re.(idx) *. u_re.(idx)) +. (u_im.(idx) *. u_im.(idx)) in
        if m > 0.5 then begin
          if Float.abs (m -. 1.) < 1e-9 then begin
            perm.(col) <- row;
            ph_re.(col) <- u_re.(idx);
            ph_im.(col) <- u_im.(idx)
          end
          else ok := false
        end
        else if m > 1e-18 then ok := false
      done;
      if perm.(col) < 0 then ok := false
    done;
    if !ok then B_perm (perm, ph_re, ph_im) else B_dense
  end

(* Symbolic product of a monomial gate run on the block's local basis:
   row.(b) is the output basis state of local input b, (pr, pi).(b) its
   phase. O(2^k) per gate, no dense matrix — this is what lets monomial
   blocks span 16 qubits. All updates are exact integer/constant
   arithmetic, so classical blocks (CNOT chains, Toffoli cascades)
   come out with exactly unit phases. *)
let mono_block n (bits : int array) rev_gates =
  let k = Array.length bits in
  let dim = 1 lsl k in
  let local q =
    let r = ref 0 in
    for b = 0 to k - 1 do
      if bits.(b) = q then r := b
    done;
    !r
  in
  let c = Circuit.map_qubits ~n:k local (Circuit.of_rev_gates n rev_gates) in
  let row = Array.init dim Fun.id in
  let pr = Array.make dim 1. and pi = Array.make dim 0. in
  let phase_if mask want (p : Complex.t) =
    for b = 0 to dim - 1 do
      if Array.unsafe_get row b land mask = want then begin
        let r = Array.unsafe_get pr b and i = Array.unsafe_get pi b in
        Array.unsafe_set pr b ((r *. p.re) -. (i *. p.im));
        Array.unsafe_set pi b ((r *. p.im) +. (i *. p.re))
      end
    done
  in
  let flip_if mask want tbit =
    for b = 0 to dim - 1 do
      let r = Array.unsafe_get row b in
      if r land mask = want then Array.unsafe_set row b (r lxor tbit)
    done
  in
  Circuit.iter
    (fun g ->
      match g with
      | Gate.X q -> flip_if 0 0 (1 lsl q)
      | Gate.Y q ->
          (* Y|0⟩ = i|1⟩, Y|1⟩ = -i|0⟩ *)
          let bit = 1 lsl q in
          for b = 0 to dim - 1 do
            let r = row.(b) in
            row.(b) <- r lxor bit;
            let rr = pr.(b) and ii = pi.(b) in
            if r land bit = 0 then begin
              pr.(b) <- -.ii;
              pi.(b) <- rr
            end
            else begin
              pr.(b) <- ii;
              pi.(b) <- -.rr
            end
          done
      | Gate.Z q ->
          let b = 1 lsl q in
          phase_if b b cm1
      | Gate.S q ->
          let b = 1 lsl q in
          phase_if b b ci
      | Gate.Sdg q ->
          let b = 1 lsl q in
          phase_if b b cmi
      | Gate.T q ->
          let b = 1 lsl q in
          phase_if b b omega
      | Gate.Tdg q ->
          let b = 1 lsl q in
          phase_if b b omega_bar
      | Gate.Rz (a, q) ->
          let h = a /. 2. in
          let bit = 1 lsl q in
          phase_if bit 0 Complex.{ re = cos h; im = -.sin h };
          phase_if bit bit Complex.{ re = cos h; im = sin h }
      | Gate.Cnot (cq, t) ->
          let cb = 1 lsl cq in
          flip_if cb cb (1 lsl t)
      | Gate.Cz (a, b) ->
          let m = (1 lsl a) lor (1 lsl b) in
          phase_if m m cm1
      | Gate.Swap (a, b) ->
          let ab = 1 lsl a and bb = 1 lsl b in
          let both = ab lor bb in
          for x = 0 to dim - 1 do
            let r = row.(x) in
            let v = r land both in
            if v = ab || v = bb then row.(x) <- r lxor both
          done
      | Gate.Ccx (a, b, t) ->
          let m = (1 lsl a) lor (1 lsl b) in
          flip_if m m (1 lsl t)
      | Gate.Ccz (a, b, cq) ->
          let m = mask_of [ a; b; cq ] in
          phase_if m m cm1
      | Gate.Mcx (cs, t) ->
          let m = mask_of cs in
          flip_if m m (1 lsl t)
      | Gate.Mcz qs ->
          let m = mask_of qs in
          phase_if m m cm1
      | Gate.H _ -> assert false (* monomial blocks never contain H *))
    c;
  (row, pr, pi)

(* [sweep_mul_into sw gx vr vi dre dim d] stores (vr, vi) times the
   sweep's phase at global index [gx] into [dre.(d)], [dim.(d)]. Every
   sweep fold goes through it (the replay kernels' pre-sweeps and the
   build-time fold into a full-width block's phase table), so the
   arithmetic (and thus the floats) is identical on all of them.
   Inlined, the phase stays in registers: no boxed floats, no stores
   through a scratch cell. *)
let[@inline] sweep_mul_into (sw : sweep) gx vr vi (dre : float array)
    (dim : float array) d =
  let l = gx land sw.half_mask and g = gx lsr sw.h in
  let p0r = Array.unsafe_get sw.lo_re l and p0i = Array.unsafe_get sw.lo_im l in
  let qr = Array.unsafe_get sw.hi_re g and qi = Array.unsafe_get sw.hi_im g in
  let pr = ref ((p0r *. qr) -. (p0i *. qi))
  and pi = ref ((p0r *. qi) +. (p0i *. qr)) in
  let straddling = sw.straddling in
  for t = 0 to Array.length straddling - 1 do
    let tm = Array.unsafe_get straddling t in
    if gx land tm.mask = tm.want then begin
      let r = !pr and i = !pi in
      pr := (r *. tm.pre) -. (i *. tm.pim);
      pi := (r *. tm.pim) +. (i *. tm.pre)
    end
  done;
  let pr = !pr and pi = !pi in
  Array.unsafe_set dre d ((pr *. vr) -. (pi *. vi));
  Array.unsafe_set dim d ((pr *. vi) +. (pi *. vr))

let all_unit (pr : float array) (pi : float array) =
  let ok = ref true in
  for b = 0 to Array.length pr - 1 do
    if pr.(b) <> 1. || pi.(b) <> 0. then ok := false
  done;
  !ok

(* --- commuting-block peepholes --- *)

(** [peephole gates] defers pending Hadamards: a monomial gate whose
    support is disjoint from every deferred H commutes with them exactly
    (they act on different tensor factors), so it is emitted first. This
    widens monomial runs across H layers and merges H gates on distinct
    qubits into one butterfly block. Any overlap flushes the deferred
    H's in order, so the result is always unitarily equal to the input
    (the test suite cross-checks via [Unitary.of_gates]). *)
let peephole (gates : Gate.t array) =
  let out = ref [] in
  let pend_h = ref [] and pend_mask = ref 0 in
  let flush () =
    List.iter (fun g -> out := g :: !out) (List.rev !pend_h);
    pend_h := [];
    pend_mask := 0
  in
  Array.iter
    (fun g ->
      match g with
      | Gate.H q ->
          let bit = 1 lsl q in
          if bit land !pend_mask <> 0 then flush ();
          pend_h := g :: !pend_h;
          pend_mask := !pend_mask lor bit
      | g when is_monomial g && gate_mask g land !pend_mask = 0 ->
          out := g :: !out
      | g ->
          flush ();
          out := g :: !out)
    gates;
  flush ();
  Array.of_list (List.rev !out)

(* Conservative commutation data for the kernel clustering pass:
   (diagonal, touched-qubit mask if known, movable). Kernels carrying a
   folded pre-sweep act as barriers — moving them would reorder the
   sweep too. *)
let kernel_traits = function
  | K_gate g -> (is_diag g, Some (gate_mask g), true)
  | K_sweep _ -> (true, None, true)
  | K_diag { bits; _ } ->
      (true, Some (Array.fold_left (fun m b -> m lor (1 lsl b)) 0 bits), true)
  | K_perm { pre = None; bits; _ }
  | K_had { pre = None; bits; _ }
  | K_dense { pre = None; bits; _ } ->
      (false, Some (Array.fold_left (fun m b -> m lor (1 lsl b)) 0 bits), true)
  | K_perm _ | K_had _ | K_dense _ | K_perm_full _ -> (false, None, false)

(* Two kernels commute exactly when both are diagonal (diagonal matrices
   always commute) or their supports are disjoint (different tensor
   factors). Only exact commutations qualify, so clustering never moves
   the plan outside rounding distance of the unfused reference. *)
let kernels_commute a b =
  let da, ma, va = kernel_traits a and db, mb, vb = kernel_traits b in
  va && vb
  && ((da && db)
     ||
     match (ma, mb) with
     | Some x, Some y -> x land y = 0
     | _ -> false)

let highest_bit m =
  let b = ref (-1) and x = ref m in
  while !x <> 0 do
    incr b;
    x := !x lsr 1
  done;
  !b

(* Bubble commuting neighbours into ascending highest-touched-bit order
   (diagonals sort lowest: they are slab-local at any layout). Low-bit
   kernels cluster together between high-bit/cross-slab ones, so sharded
   replay runs fewer exchange rounds. O(ops²) worst case on a schedule
   that is already short. *)
let cluster_ops (ops : kernel array) =
  let n = Array.length ops in
  if n < 2 then ops
  else begin
    let ops = Array.copy ops in
    let key k =
      let d, m, _ = kernel_traits k in
      if d then -1
      else match m with Some m -> highest_bit m | None -> max_int
    in
    let changed = ref true and rounds = ref 0 in
    while !changed && !rounds < n do
      changed := false;
      incr rounds;
      for i = 0 to n - 2 do
        let a = ops.(i) and b = ops.(i + 1) in
        if key b < key a && kernels_commute a b then begin
          ops.(i) <- b;
          ops.(i + 1) <- a;
          changed := true
        end
      done
    done;
    ops
  end

(* --- building --- *)

let build circuit =
  Obs.with_span "sv.plan.build" @@ fun () ->
  let n = Circuit.num_qubits circuit in
  let gates = peephole (Circuit.to_array circuit) in
  let ng = Array.length gates in
  (* greedy block grouping of everything outside sweep runs, folding
     each pending sweep into the next dense/permutation block *)
  let ops = ref [] and blocks = ref 0 and fused = ref 0 in
  let emit k = ops := k :: !ops in
  let pending_sweep = ref None in
  let take_sweep () =
    let sw = !pending_sweep in
    pending_sweep := None;
    sw
  in
  let emit_sweep_if_pending () =
    match take_sweep () with Some sw -> emit (K_sweep sw) | None -> ()
  in
  (* Pending block kinds: [P_mono] — monomial gates only, realized by a
     symbolic basis table (wide); [P_had] — Hadamards on distinct
     qubits, realized by in-register butterflies; [P_dense] — mixed
     support on ≤ max_dense_qubits, realized by a dense matrix. *)
  let pend_rev = ref [] and pend_mask = ref 0 in
  let pend_n = ref 0 and pend_kind = ref `Mono in
  let reset_pend () =
    pend_rev := [];
    pend_mask := 0;
    pend_n := 0;
    pend_kind := `Mono
  in
  let flush_block () =
    (match !pend_rev with
    | [] -> ()
    | [ g ] ->
        (* singletons re-emit the original gate: the specialized
           kernels beat a generic block and stay exact *)
        emit_sweep_if_pending ();
        emit (K_gate g)
    | revs -> (
        let bits = bits_of_mask !pend_mask in
        let k = Array.length bits in
        let dim = 1 lsl k in
        incr blocks;
        fused := !fused + !pend_n;
        match !pend_kind with
        | `Had -> emit (K_had { pre = take_sweep (); bits; offs = offs_of bits })
        | `Mono ->
            let row, pr, pi = mono_block n bits revs in
            (* full-width blocks fold the pending sweep into the phase
               table now — its memory pass disappears entirely *)
            if k = n then (
              match take_sweep () with
              | Some sw ->
                  for b = 0 to dim - 1 do
                    sweep_mul_into sw b pr.(b) pi.(b) pr pi b
                  done
              | None -> ());
            let identity = ref true in
            for b = 0 to dim - 1 do
              if row.(b) <> b then identity := false
            done;
            let unit = all_unit pr pi in
            if !identity && unit then () (* block collapsed to identity *)
            else if !identity then begin
              emit_sweep_if_pending ();
              emit (K_diag { bits; ph_re = pr; ph_im = pi })
            end
            else if k = n then begin
              let inv = Array.make dim 0 in
              for b = 0 to dim - 1 do
                inv.(row.(b)) <- b
              done;
              emit
                (K_perm_full { inv; ph = (if unit then None else Some (pr, pi)) })
            end
            else
              emit
                (K_perm
                   { pre = take_sweep (); bits; offs = offs_of bits; perm = row;
                     ph = (if unit then None else Some (pr, pi)) })
        | `Dense -> (
            let u_re, u_im = block_matrix n bits revs in
            match classify dim u_re u_im with
            | B_diag (ph_re, ph_im) ->
                emit_sweep_if_pending ();
                emit (K_diag { bits; ph_re; ph_im })
            | B_perm (perm, ph_re, ph_im) ->
                emit
                  (K_perm
                     { pre = take_sweep (); bits; offs = offs_of bits; perm;
                       ph =
                         (if all_unit ph_re ph_im then None
                          else Some (ph_re, ph_im)) })
            | B_dense ->
                emit
                  (K_dense
                     { pre = take_sweep (); bits; offs = offs_of bits; u_re;
                       u_im }))));
    reset_pend ()
  in
  let start_pend g gm kind =
    pend_rev := [ g ];
    pend_mask := gm;
    pend_n := 1;
    pend_kind := kind
  in
  let merge g u kind =
    pend_rev := g :: !pend_rev;
    pend_mask := u;
    pend_n := !pend_n + 1;
    pend_kind := kind
  in
  (* Monomial merges are bounded by width and by build work
     (gates × 2^k); Hadamard runs by scratch width; dense blocks form
     only when supports genuinely overlap (fusing disjoint gates into a
     Kronecker product multiplies arithmetic for nothing). *)
  let mono_fits u extra =
    let pc = popcount u in
    pc <= max_mono_qubits && (!pend_n + extra) lsl pc <= max_block_work
  in
  let group g =
    let gm = gate_mask g and gmono = is_monomial g in
    if gmono && popcount gm > max_mono_qubits then begin
      (* wide MCX/MCZ: straight through the specialized kernel *)
      flush_block ();
      emit_sweep_if_pending ();
      emit (K_gate g)
    end
    else if !pend_n = 0 then start_pend g gm (if gmono then `Mono else `Had)
    else begin
      let u = !pend_mask lor gm in
      let overlap = !pend_mask land gm <> 0 in
      match !pend_kind with
      | `Mono ->
          if gmono && mono_fits u 1 then merge g u `Mono
          else if (not gmono) && overlap && popcount u <= max_dense_qubits
          then merge g u `Dense
          else begin
            flush_block ();
            start_pend g gm (if gmono then `Mono else `Had)
          end
      | `Had ->
          if (not gmono) && (not overlap) && popcount u <= max_kron_qubits
          then merge g u `Had
          else if overlap && popcount u <= max_dense_qubits then
            merge g u `Dense
          else begin
            flush_block ();
            start_pend g gm (if gmono then `Mono else `Had)
          end
      | `Dense ->
          if popcount u <= max_dense_qubits then merge g u `Dense
          else begin
            flush_block ();
            start_pend g gm (if gmono then `Mono else `Had)
          end
    end
  in
  (* One walk over maximal runs of diagonal and X gates. A run holding
     at least [min_diag_run] diagonal gates collects into one sweep with
     its X gates pushed to the end: X_m·D·X_m is D with each term's
     condition flipped by m, so a term read under the running mask m
     wants [want lxor (mask land m)]. The leftover mask re-enters
     grouping as X gates after the sweep. Every other gate is grouped
     as it comes. *)
  let frame g = is_diag g || match g with Gate.X _ -> true | _ -> false in
  let i = ref 0 in
  while !i < ng do
    let j = ref !i and diags = ref 0 in
    while !j < ng && frame gates.(!j) do
      if is_diag gates.(!j) then incr diags;
      incr j
    done;
    let j = max !j (!i + 1) in
    if !diags < min_diag_run then
      for x = !i to j - 1 do
        group gates.(x)
      done
    else begin
      flush_block ();
      emit_sweep_if_pending ();
      let terms = ref [] and m = ref 0 in
      for x = !i to j - 1 do
        match gates.(x) with
        | Gate.X q -> m := !m lxor (1 lsl q)
        | g -> (
            match dterms_of_gate g with
            | Some ts ->
                let m = !m in
                terms :=
                  List.map (fun t -> { t with want = t.want lxor (t.mask land m) }) ts
                  :: !terms
            | None -> assert false)
      done;
      let left = bits_of_mask !m in
      incr blocks;
      fused := !fused + (j - !i) - Array.length left;
      pending_sweep :=
        Some (sweep_of_terms n (Array.of_list (List.concat (List.rev !terms))));
      Array.iter (fun q -> group (Gate.X q)) left
    end;
    i := j
  done;
  flush_block ();
  emit_sweep_if_pending ();
  let p =
    { n; ops = cluster_ops (Array.of_list (List.rev !ops)); blocks = !blocks;
      fused_gates = !fused; source_gates = ng }
  in
  if Obs.enabled () then begin
    if p.blocks > 0 then begin
      Obs.count ~by:p.blocks "sv.plan.blocks";
      Obs.count ~by:p.fused_gates "sv.plan.fused_gates"
    end;
    Obs.add_attrs
      [ ("ops", Obs.Int (Array.length p.ops)); ("gates", Obs.Int ng);
        ("qubits", Obs.Int n) ]
  end;
  p

(* --- replay kernels --- *)

(* Expand a compressed group index by inserting a zero at each block
   bit, ascending — bits.(b) is the bit's final position, valid
   because all lower block bits are already inserted. *)
let expand (bits : int array) i =
  let x = ref i in
  for b = 0 to Array.length bits - 1 do
    let low = (1 lsl Array.unsafe_get bits b) - 1 in
    x := ((!x land lnot low) lsl 1) lor (!x land low)
  done;
  !x

(* Gather one group into scratch, optionally folding a diagonal
   sweep's phase into each amplitude as it is read. *)
let gather_plain (re : float array) (im : float array) (offs : int array)
    (ar : float array) (ai : float array) base =
  for j = 0 to Array.length offs - 1 do
    let idx = base lor Array.unsafe_get offs j in
    Array.unsafe_set ar j (Array.unsafe_get re idx);
    Array.unsafe_set ai j (Array.unsafe_get im idx)
  done

(* Gather with a pre-sweep: values live at slab-local offsets
   ([lbase]), the sweep tables want the global index ([gbase]). *)
let gather_pre (re : float array) (im : float array) (offs : int array)
    (ar : float array) (ai : float array) (sw : sweep) gbase lbase =
  for j = 0 to Array.length offs - 1 do
    let off = Array.unsafe_get offs j in
    let idx = lbase lor off in
    sweep_mul_into sw (gbase lor off) (Array.unsafe_get re idx)
      (Array.unsafe_get im idx) ar ai j
  done

(* Global-accessor gathers for the rare cross-slab narrow blocks. *)
let gather_plain_g s (offs : int array) (ar : float array) (ai : float array)
    base =
  for j = 0 to Array.length offs - 1 do
    let idx = base lor Array.unsafe_get offs j in
    Array.unsafe_set ar j (get_re s idx);
    Array.unsafe_set ai j (get_im s idx)
  done

let gather_pre_g s (offs : int array) (ar : float array) (ai : float array)
    (sw : sweep) base =
  for j = 0 to Array.length offs - 1 do
    let idx = base lor Array.unsafe_get offs j in
    sweep_mul_into sw idx (get_re s idx) (get_im s idx) ar ai j
  done

(* The dense matvec on a gathered group — shared by the slab-local and
   cross-slab dense kernels (identical arithmetic). *)
let dense_matvec dim (u_re : float array) (u_im : float array)
    (ar : float array) (ai : float array) (br : float array) (bi : float array)
    =
  for row = 0 to dim - 1 do
    let rb = row * dim in
    Array.unsafe_set br row 0.;
    Array.unsafe_set bi row 0.;
    for c = 0 to dim - 1 do
      let ur = Array.unsafe_get u_re (rb + c)
      and ui = Array.unsafe_get u_im (rb + c) in
      let xr = Array.unsafe_get ar c and xi = Array.unsafe_get ai c in
      Array.unsafe_set br row
        (Array.unsafe_get br row +. ((ur *. xr) -. (ui *. xi)));
      Array.unsafe_set bi row
        (Array.unsafe_get bi row +. ((ur *. xi) +. (ui *. xr)))
    done
  done

(* Block kernels below run on one slab whose bits hold every block bit:
   compressed group indices [lo, hi) range over the slab, and [sbase]
   (the slab's first global index) recovers global indices for the
   pre-sweep tables. Group scratch ([ar]/[ai], [br]/[bi]) comes from the
   caller, so one allocation serves a whole pool task — wide blocks
   would otherwise churn megabytes of garbage per slab. *)
let seg_dense (re : float array) (im : float array) (bits : int array)
    (offs : int array) (u_re : float array) (u_im : float array)
    (pre : sweep option) (ar : float array) (ai : float array)
    (br : float array) (bi : float array) sbase lo hi =
  let dim = Array.length offs in
  for i = lo to hi - 1 do
    let lbase = expand bits i in
    (match pre with
    | None -> gather_plain re im offs ar ai lbase
    | Some sw -> gather_pre re im offs ar ai sw (sbase lor lbase) lbase);
    dense_matvec dim u_re u_im ar ai br bi;
    for j = 0 to dim - 1 do
      let idx = lbase lor Array.unsafe_get offs j in
      Array.unsafe_set re idx (Array.unsafe_get br j);
      Array.unsafe_set im idx (Array.unsafe_get bi j)
    done
  done

(* Cross-slab dense kernel through the global accessors. *)
let seg_dense_g s (bits : int array) (offs : int array) (u_re : float array)
    (u_im : float array) (pre : sweep option) lo hi =
  let dim = Array.length offs in
  let ar = Array.make dim 0. and ai = Array.make dim 0. in
  let br = Array.make dim 0. and bi = Array.make dim 0. in
  for i = lo to hi - 1 do
    let base = expand bits i in
    (match pre with
    | None -> gather_plain_g s offs ar ai base
    | Some sw -> gather_pre_g s offs ar ai sw base);
    dense_matvec dim u_re u_im ar ai br bi;
    for j = 0 to dim - 1 do
      let idx = base lor Array.unsafe_get offs j in
      set_re s idx (Array.unsafe_get br j);
      set_im s idx (Array.unsafe_get bi j)
    done
  done

(* Permutation block: each column moves to its row, times its phase;
   [ph = None] (a classical block, all phases exactly 1) is move-only. *)
let seg_perm (re : float array) (im : float array) (bits : int array)
    (offs : int array) (perm : int array)
    (ph : (float array * float array) option) (pre : sweep option)
    (ar : float array) (ai : float array) sbase lo hi =
  let dim = Array.length offs in
  for i = lo to hi - 1 do
    let lbase = expand bits i in
    (match pre with
    | None -> gather_plain re im offs ar ai lbase
    | Some sw -> gather_pre re im offs ar ai sw (sbase lor lbase) lbase);
    match ph with
    | None ->
        for c = 0 to dim - 1 do
          let row = Array.unsafe_get perm c in
          let idx = lbase lor Array.unsafe_get offs row in
          Array.unsafe_set re idx (Array.unsafe_get ar c);
          Array.unsafe_set im idx (Array.unsafe_get ai c)
        done
    | Some (ph_re, ph_im) ->
        for c = 0 to dim - 1 do
          let row = Array.unsafe_get perm c in
          let pr = Array.unsafe_get ph_re c and pi = Array.unsafe_get ph_im c in
          let xr = Array.unsafe_get ar c and xi = Array.unsafe_get ai c in
          let idx = lbase lor Array.unsafe_get offs row in
          Array.unsafe_set re idx ((pr *. xr) -. (pi *. xi));
          Array.unsafe_set im idx ((pr *. xi) +. (pi *. xr))
        done
  done

(* The block row of a destination index by two table loads: for a
   split [rh] of the index bits, [rlo.(v)] holds the block bits of the
   low half [v] at their local positions and [rhi.(v)] those of
   [v lsl rh]. When bits.(0) = 0 every run is one amplitude, and a k-bit
   loop per run cost more than the copy it steers. *)
let row_tables n (bits : int array) =
  let rh = (n + 1) / 2 in
  let row x =
    let r = ref 0 in
    Array.iteri (fun b q -> if x land (1 lsl q) <> 0 then r := !r lor (1 lsl b)) bits;
    !r
  in
  (rh, Array.init (1 lsl rh) row, Array.init (1 lsl (n - rh)) (fun v -> row (v lsl rh)))

(* Cross-slab narrow permutation, destination-major: out-of-place
   through the ping-pong scratch. Within an aligned run of 2^bits.(0)
   destinations every block bit is constant, so the block row — and
   with it the source base and phase — is fixed, and both sides stream
   contiguously (clamped to slab boundaries when a run is wider than a
   slab). Group-major gather/scatter walks dim strided locations per
   group; this order is a sequence of straight copies. The arithmetic
   per amplitude is exactly {!seg_perm}'s — the pre-sweep multiply at
   the source index, then the block phase — and each destination is
   written once, so chunking the run range is bit-identical. [t]
   indexes runs: run t covers global indices [t·2^bits.(0),
   (t+1)·2^bits.(0)). *)
let seg_perm_stream s (out_re : float array array)
    (out_im : float array array) (bits : int array) (offs : int array)
    (pinv : int array) (ph : (float array * float array) option)
    (pre : sweep option) (rh, (rlo : int array), (rhi : int array)) tlo thi =
  let k = Array.length bits in
  let b0 = Array.unsafe_get bits 0 in
  let run = 1 lsl b0 in
  let bmask = ref 0 in
  for b = 0 to k - 1 do
    bmask := !bmask lor (1 lsl Array.unsafe_get bits b)
  done;
  let bmask = !bmask and rmask = (1 lsl rh) - 1 in
  let sb = s.sb and smask = s.smask in
  for t = tlo to thi - 1 do
    let d0 = t lsl b0 in
    let r =
      Array.unsafe_get rlo (d0 land rmask) lor Array.unsafe_get rhi (d0 lsr rh)
    in
    let c = Array.unsafe_get pinv r in
    let src0 = (d0 land lnot bmask) lor Array.unsafe_get offs c in
    let j = ref 0 in
    while !j < run do
      let d = d0 lor !j and x = src0 lor !j in
      let dof = d land smask and sof = x land smask in
      let len = min (run - !j) (min (smask + 1 - dof) (smask + 1 - sof)) in
      let dre = Array.unsafe_get out_re (d lsr sb)
      and dim_ = Array.unsafe_get out_im (d lsr sb) in
      let sre = Array.unsafe_get s.sl_re (x lsr sb)
      and sim = Array.unsafe_get s.sl_im (x lsr sb) in
      (match (pre, ph) with
      | None, None ->
          for e = 0 to len - 1 do
            Array.unsafe_set dre (dof + e) (Array.unsafe_get sre (sof + e));
            Array.unsafe_set dim_ (dof + e) (Array.unsafe_get sim (sof + e))
          done
      | None, Some (ph_re, ph_im) ->
          let pr = Array.unsafe_get ph_re c and pi = Array.unsafe_get ph_im c in
          for e = 0 to len - 1 do
            let vr = Array.unsafe_get sre (sof + e)
            and vi = Array.unsafe_get sim (sof + e) in
            Array.unsafe_set dre (dof + e) ((pr *. vr) -. (pi *. vi));
            Array.unsafe_set dim_ (dof + e) ((pr *. vi) +. (pi *. vr))
          done
      | Some sw, _ -> (
          for e = 0 to len - 1 do
            sweep_mul_into sw (x + e)
              (Array.unsafe_get sre (sof + e))
              (Array.unsafe_get sim (sof + e))
              dre dim_ (dof + e)
          done;
          (* then the block phase, in place on the swept values *)
          match ph with
          | None -> ()
          | Some (ph_re, ph_im) ->
              let pr = Array.unsafe_get ph_re c and pi = Array.unsafe_get ph_im c in
              for e = dof to dof + len - 1 do
                let gr = Array.unsafe_get dre e and gi = Array.unsafe_get dim_ e in
                Array.unsafe_set dre e ((pr *. gr) -. (pi *. gi));
                Array.unsafe_set dim_ e ((pr *. gi) +. (pi *. gr))
              done));
      j := !j + len
    done
  done

(* Full-width permutation, out-of-place through the inverse map: each
   destination slab is written sequentially (y ascending; reads scatter,
   which caches better than scattered writes), so chunks write disjoint
   output slices with no locks. [sbase] is the destination slab's first
   global index; reads resolve each source index to its slab. *)
let seg_perm_full_sh s (out_re : float array) (out_im : float array)
    (inv : int array) (ph : (float array * float array) option) sbase lo hi =
  let sb = s.sb and smask = s.smask in
  let sl_re = s.sl_re and sl_im = s.sl_im in
  match ph with
  | None ->
      for y = lo to hi - 1 do
        let x = Array.unsafe_get inv (sbase lor y) in
        let sl = x lsr sb and o = x land smask in
        Array.unsafe_set out_re y (Array.unsafe_get (Array.unsafe_get sl_re sl) o);
        Array.unsafe_set out_im y (Array.unsafe_get (Array.unsafe_get sl_im sl) o)
      done
  | Some (ph_re, ph_im) ->
      for y = lo to hi - 1 do
        let x = Array.unsafe_get inv (sbase lor y) in
        let sl = x lsr sb and o = x land smask in
        let pr = Array.unsafe_get ph_re x and pi = Array.unsafe_get ph_im x in
        let vr = Array.unsafe_get (Array.unsafe_get sl_re sl) o
        and vi = Array.unsafe_get (Array.unsafe_get sl_im sl) o in
        Array.unsafe_set out_re y ((pr *. vr) -. (pi *. vi));
        Array.unsafe_set out_im y ((pr *. vi) +. (pi *. vr))
      done

(* {!seg_perm_full_sh} on a single slab, reading [re]/[im] directly. *)
let seg_perm_full (re : float array) (im : float array) (out_re : float array)
    (out_im : float array) (inv : int array)
    (ph : (float array * float array) option) lo hi =
  match ph with
  | None ->
      for y = lo to hi - 1 do
        let x = Array.unsafe_get inv y in
        Array.unsafe_set out_re y (Array.unsafe_get re x);
        Array.unsafe_set out_im y (Array.unsafe_get im x)
      done
  | Some (ph_re, ph_im) ->
      for y = lo to hi - 1 do
        let x = Array.unsafe_get inv y in
        let pr = Array.unsafe_get ph_re x and pi = Array.unsafe_get ph_im x in
        let vr = Array.unsafe_get re x and vi = Array.unsafe_get im x in
        Array.unsafe_set out_re y ((pr *. vr) -. (pi *. vi));
        Array.unsafe_set out_im y ((pr *. vi) +. (pi *. vr))
      done

(* --- Hadamard rounds ---

   A Hadamard on bit b maps each pair (x, x + 2^b) to
   (sqrt2inv·(x + y), sqrt2inv·(x − y)). Real and imaginary parts
   transform independently, so every routine below runs on one float
   array at a time. Two rounds fuse into one pass over quads
   (x0, x0 + st, x0 + 2st, x0 + 3st): round b's outputs stay in
   registers for round b + 1. Per amplitude the operations, and their
   order, are exactly those of separate ascending rounds, so every
   schedule below is bit-identical to the one-round-at-a-time loop. *)

(* One pair (x, x + st) / one quad (x0, x0 + st, x0 + 2st, x0 + 3st). *)
let[@inline] had_pair (a : float array) x st =
  let y = x + st in
  let u = Array.unsafe_get a x and v = Array.unsafe_get a y in
  Array.unsafe_set a x (sqrt2inv *. (u +. v));
  Array.unsafe_set a y (sqrt2inv *. (u -. v))

let[@inline] had_quad (a : float array) x0 st =
  let x1 = x0 + st in
  let x2 = x1 + st in
  let x3 = x2 + st in
  let s = sqrt2inv in
  let v0 = Array.unsafe_get a x0 and v1 = Array.unsafe_get a x1 in
  let v2 = Array.unsafe_get a x2 and v3 = Array.unsafe_get a x3 in
  let u0 = s *. (v0 +. v1) and u1 = s *. (v0 -. v1) in
  let u2 = s *. (v2 +. v3) and u3 = s *. (v2 -. v3) in
  Array.unsafe_set a x0 (s *. (u0 +. u2));
  Array.unsafe_set a x2 (s *. (u0 -. u2));
  Array.unsafe_set a x1 (s *. (u1 +. u3));
  Array.unsafe_set a x3 (s *. (u1 -. u3))

(* Round b on [o, o + len): blocks of 2st, each a straight run of st
   pairs — no test, no idle iteration. Bit 0 walks its pairs (quads
   below) in one flat loop rather than an inner loop of length one. *)
let had_round2 (a : float array) o len b =
  let st = 1 lsl b in
  if st = 1 then
    for p = 0 to (len lsr 1) - 1 do
      had_pair a (o + (p lsl 1)) 1
    done
  else
    for g = 0 to (len lsr (b + 1)) - 1 do
      let base = o + (g lsl (b + 1)) in
      for x = base to base + st - 1 do
        had_pair a x st
      done
    done

(* Rounds b and b + 1 on [o, o + len): blocks of 4st, st quads each. *)
let had_round4 (a : float array) o len b =
  let st = 1 lsl b in
  if st = 1 then
    for q = 0 to (len lsr 2) - 1 do
      had_quad a (o + (q lsl 2)) 1
    done
  else
    for g = 0 to (len lsr (b + 2)) - 1 do
      let base = o + (g lsl (b + 2)) in
      for x0 = base to base + st - 1 do
        had_quad a x0 st
      done
    done

(* Rounds [b, k) ascending on [o, o + len), len a multiple of 2^k:
   radix-4 passes, then one radix-2 round when k - b is odd. *)
let had_rounds (a : float array) o len b k =
  let b = ref b in
  while !b + 1 < k do
    had_round4 a o len !b;
    b := !b + 2
  done;
  if !b < k then had_round2 a o len !b

(* Hadamards on k scattered bits: gather a group, run the k rounds in
   scratch, scatter. The win over k separate passes is k memory passes
   collapsing into one. *)
let seg_had (re : float array) (im : float array) (bits : int array)
    (offs : int array) (pre : sweep option) (ar : float array)
    (ai : float array) sbase lo hi =
  let dim = Array.length offs in
  let k = Array.length bits in
  for i = lo to hi - 1 do
    let lbase = expand bits i in
    (match pre with
    | None -> gather_plain re im offs ar ai lbase
    | Some sw -> gather_pre re im offs ar ai sw (sbase lor lbase) lbase);
    had_rounds ar 0 dim 0 k;
    had_rounds ai 0 dim 0 k;
    for j = 0 to dim - 1 do
      let idx = lbase lor Array.unsafe_get offs j in
      Array.unsafe_set re idx (Array.unsafe_get ar j);
      Array.unsafe_set im idx (Array.unsafe_get ai j)
    done
  done

(* Unconditional sweep-multiply pass: a pre-sweep with no gather to fold
   into (an in-place block, or a block whose bits are all cross-slab)
   applies to every amplitude with the exact {!gather_pre} arithmetic —
   unconditional multiply, no skip-when-unit, so the floats match the
   folded form. *)
let seg_sweep_mul (re : float array) (im : float array) (sw : sweep) sbase lo
    hi =
  for x = lo to hi - 1 do
    sweep_mul_into sw (sbase lor x) (Array.unsafe_get re x)
      (Array.unsafe_get im x) re im x
  done

(* Blocks of 2^12 amplitudes (32 kB per float array) stay in L1. *)
let l1_bits = 12

(* Hadamards on contiguous bits b0..b0+k-1, in place on [start, stop)
   of one slab (a multiple of the span 2^(b0+k) that holds whole
   groups): no gather, no scatter. Each L1 block takes its pre-sweep
   and every round below bit [l1_bits]; the higher rounds then pass
   over the unit (a span, or L1 block's worth of small spans). *)
let seg_had_span (re : float array) (im : float array) b0 k (pre : sweep option)
    sbase start stop =
  let kl = max 0 (min k (l1_bits - b0)) in
  let unit = 1 lsl max (b0 + k) l1_bits in
  let o = ref start in
  while !o < stop do
    let len = min unit (stop - !o) in
    let blk = min len (1 lsl l1_bits) in
    let u = ref !o in
    while !u < !o + len do
      (match pre with
      | None -> ()
      | Some sw -> seg_sweep_mul re im sw sbase !u (!u + blk));
      had_rounds re !u blk b0 (b0 + kl);
      had_rounds im !u blk b0 (b0 + kl);
      u := !u + blk
    done;
    had_rounds re !o len (b0 + kl) (b0 + k);
    had_rounds im !o len (b0 + kl) (b0 + k);
    o := !o + len
  done

(* Streaming rounds. A row is 2^p consecutive amplitudes; when every
   remaining block bit sits at or above p, a pair's partners share a
   column of two rows, so a round is a straight elementwise pass over
   whole row pairs (row quads for two fused rounds), in place, with no
   gather. [row_round2]/[row_round4] run one round / two rounds on
   columns [c0, c1) of rows [rj] at slab offsets [oj]. *)
let row_round2 (r0 : float array) o0 (r1 : float array) o1 c0 c1 =
  let s = sqrt2inv in
  for c = c0 to c1 - 1 do
    let u = Array.unsafe_get r0 (o0 + c) and v = Array.unsafe_get r1 (o1 + c) in
    Array.unsafe_set r0 (o0 + c) (s *. (u +. v));
    Array.unsafe_set r1 (o1 + c) (s *. (u -. v))
  done

let row_round4 (r0 : float array) o0 (r1 : float array) o1 (r2 : float array)
    o2 (r3 : float array) o3 c0 c1 =
  let s = sqrt2inv in
  for c = c0 to c1 - 1 do
    let v0 = Array.unsafe_get r0 (o0 + c) and v1 = Array.unsafe_get r1 (o1 + c) in
    let v2 = Array.unsafe_get r2 (o2 + c) and v3 = Array.unsafe_get r3 (o3 + c) in
    let u0 = s *. (v0 +. v1) and u1 = s *. (v0 -. v1) in
    let u2 = s *. (v2 +. v3) and u3 = s *. (v2 -. v3) in
    Array.unsafe_set r0 (o0 + c) (s *. (u0 +. u2));
    Array.unsafe_set r2 (o2 + c) (s *. (u0 -. u2));
    Array.unsafe_set r1 (o1 + c) (s *. (u1 +. u3));
    Array.unsafe_set r3 (o3 + c) (s *. (u1 -. u3))
  done

(* All kh rounds on columns [c0, c1) of one group's 2^kh rows, indexed
   like a scratch group (row j holds local index j): the same quads,
   the same ascending order as {!had_rounds}. *)
let had_rows (rows : float array array) (roff : int array) kh c0 c1 =
  let b = ref 0 in
  while !b + 1 < kh do
    let b_ = !b in
    let st = 1 lsl b_ in
    let low = st - 1 in
    for q = 0 to (1 lsl (kh - 2)) - 1 do
      let j0 = ((q lsr b_) lsl (b_ + 2)) lor (q land low) in
      let j1 = j0 + st in
      let j2 = j1 + st in
      let j3 = j2 + st in
      row_round4 rows.(j0) roff.(j0) rows.(j1) roff.(j1) rows.(j2) roff.(j2)
        rows.(j3) roff.(j3) c0 c1
    done;
    b := b_ + 2
  done;
  if !b < kh then begin
    let b_ = !b in
    let st = 1 lsl b_ in
    let low = st - 1 in
    for p = 0 to (1 lsl (kh - 1)) - 1 do
      let j0 = ((p lsr b_) lsl (b_ + 1)) lor (p land low) in
      let j1 = j0 + st in
      row_round2 rows.(j0) roff.(j0) rows.(j1) roff.(j1) c0 c1
    done
  end

(* Columns per tile: a tile of every row of a group stays in cache from
   its first round to its last (2^kh rows × 2 kB, e.g. 128 kB per float
   array for the 6 cross-slab bits of a 22-qubit state). *)
let had_tile = 256

(* The streaming rounds of a Hadamard block on rows of 2^p amplitudes
   (p ≤ the slab bit, so a row never straddles slabs): [hoffs] lists a
   group's rows by local index, [hmask] marks the block's row bits, and
   groups are the rows with those bits clear. Chunks split the columns
   [lo, hi): disjoint writes, and every amplitude still sees its rounds
   in ascending bit order, after the slab-local ones, so any chunking
   and any tile size is bit-identical. *)
let seg_had_high s (hoffs : int array) hmask p kh lo hi =
  let dim = Array.length hoffs in
  let rre = Array.make dim [||] and rim = Array.make dim [||] in
  let roff = Array.make dim 0 in
  for g = 0 to (size s lsr p) - 1 do
    if g land hmask = 0 then begin
      for j = 0 to dim - 1 do
        let x = (g lor hoffs.(j)) lsl p in
        rre.(j) <- s.sl_re.(x lsr s.sb);
        rim.(j) <- s.sl_im.(x lsr s.sb);
        roff.(j) <- x land s.smask
      done;
      let c0 = ref lo in
      while !c0 < hi do
        let c1 = min hi (!c0 + had_tile) in
        had_rows rre roff kh !c0 c1;
        had_rows rim roff kh !c0 c1;
        c0 := c1
      done
    end
  done

(* Diagonal block: local writes, bit tests on the global index
   ([sbase lor x]). Diagonals never cross slabs whatever their bits. *)
let seg_diag_block (re : float array) (im : float array) (bits : int array)
    (ph_re : float array) (ph_im : float array) sbase lo hi =
  let k = Array.length bits in
  for x = lo to hi - 1 do
    let gx = sbase lor x in
    let j = ref 0 in
    for b = 0 to k - 1 do
      if gx land (1 lsl Array.unsafe_get bits b) <> 0 then
        j := !j lor (1 lsl b)
    done;
    let pr = Array.unsafe_get ph_re !j and pi = Array.unsafe_get ph_im !j in
    if not (pr = 1. && pi = 0.) then begin
      let r = re.(x) and i = im.(x) in
      re.(x) <- (pr *. r) -. (pi *. i);
      im.(x) <- (pr *. i) +. (pi *. r)
    end
  done

(* The ping-pong scratch slab set shared by the out-of-place kernels of
   one [execute] (allocated on first use, then recycled: the state's
   old slabs become the next kernel's scratch). Uninitialized on
   purpose — every out-of-place kernel writes every destination before
   the swap, and pre-zeroing would cost a full extra memory pass. *)
let acquire_scratch s scratch =
  match !scratch with
  | Some pair -> pair
  | None ->
      let slabs = slab_count s and ssz = slab_size s in
      let pair =
        ( Array.init slabs (fun _ -> Array.create_float ssz),
          Array.init slabs (fun _ -> Array.create_float ssz) )
      in
      scratch := Some pair;
      pair

(* All block bits below the slab bit → slab-local replay. [bits] is
   ascending (built by {!bits_of_mask}). *)
let bits_local s (bits : int array) =
  let k = Array.length bits in
  k = 0 || bits.(k - 1) < s.sb

(* Out-of-place kernels finish by swapping the state onto their output:
   the old slabs become the next kernel's scratch. *)
let swap_in s scratch (out_re, out_im) =
  scratch := Some (s.sl_re, s.sl_im);
  s.sl_re <- out_re;
  s.sl_im <- out_im

let exec_kernel s scratch = function
  | K_gate g -> apply s g
  | K_sweep sw -> apply_sweep s sw
  | K_diag { bits; ph_re; ph_im } ->
      run_slabs s (fun sl lo hi ->
          seg_diag_block s.sl_re.(sl) s.sl_im.(sl) bits ph_re ph_im
            (sl lsl s.sb) lo hi)
  | K_perm { pre; bits; offs; perm; ph } ->
      if bits_local s bits then begin
        let dim = Array.length offs in
        run_chunks s ~units:(slab_size s lsr Array.length bits)
          (fun slo shi lo hi ->
            let ar = Array.make dim 0. and ai = Array.make dim 0. in
            for sl = slo to shi - 1 do
              seg_perm s.sl_re.(sl) s.sl_im.(sl) bits offs perm ph pre ar ai
                (sl lsl s.sb) lo hi
            done)
      end
      else begin
        (* cross-slab: destination-major streaming, out-of-place *)
        let pinv = Array.make (Array.length perm) 0 in
        Array.iteri (fun c r -> Array.unsafe_set pinv r c) perm;
        let ((out_re, out_im) as out) = acquire_scratch s scratch in
        run_range s (size s lsr bits.(0))
          (seg_perm_stream s out_re out_im bits offs pinv ph pre
             (row_tables (num_qubits s) bits));
        swap_in s scratch out
      end
  | K_perm_full { inv; ph } ->
      let ((out_re, out_im) as out) = acquire_scratch s scratch in
      (* one slab: the per-read slab lookup cost 12-15% at 14-16 qubits *)
      if slab_count s = 1 then
        run_slabs s (fun _ lo hi ->
            seg_perm_full s.sl_re.(0) s.sl_im.(0) out_re.(0) out_im.(0) inv ph
              lo hi)
      else
        run_slabs s (fun sl lo hi ->
            seg_perm_full_sh s out_re.(sl) out_im.(sl) inv ph (sl lsl s.sb) lo
              hi);
      swap_in s scratch out
  | K_had { pre; bits; offs } ->
      let k = Array.length bits in
      let below lim =
        let c = ref 0 in
        while !c < k && bits.(!c) < lim do
          incr c
        done;
        !c
      in
      (* groups the slab-local pass over the first [nl] bits hands out *)
      let units nl =
        let top = bits.(nl - 1) + 1 in
        if top - bits.(0) = nl then slab_size s lsr top else slab_size s lsr nl
      in
      (* slab-local rounds: the bits below the slab bit, except that on
         one slab a block that leaves fewer groups than the pool has
         domains (the H layer of a whole state) hands its top bits to
         the streaming rounds, whose column chunks split over the pool *)
      let nlow =
        let nl = below s.sb in
        let pool = Par.size (Par.global ()) in
        if slab_count s = 1 && size s > par_threshold && nl > 0 && units nl < pool
        then below (s.sb - ceil_log2 pool)
        else nl
      in
      (if nlow > 0 then begin
         let top = bits.(nlow - 1) + 1 in
         if top - bits.(0) = nlow then
           (* contiguous: in place, units of one span *)
           run_chunks s ~units:(units nlow) (fun slo shi lo hi ->
               for sl = slo to shi - 1 do
                 seg_had_span s.sl_re.(sl) s.sl_im.(sl) bits.(0) nlow pre
                   (sl lsl s.sb) (lo lsl top) (hi lsl top)
               done)
         else begin
           let lbits = if nlow = k then bits else Array.sub bits 0 nlow in
           let loffs = if nlow = k then offs else offs_of lbits in
           let ldim = Array.length loffs in
           run_chunks s ~units:(units nlow) (fun slo shi lo hi ->
               let ar = Array.make ldim 0. and ai = Array.make ldim 0. in
               for sl = slo to shi - 1 do
                 seg_had s.sl_re.(sl) s.sl_im.(sl) lbits loffs pre ar ai
                   (sl lsl s.sb) lo hi
               done)
         end
       end
       else
         match pre with
         | Some sw ->
             run_slabs s (fun sl lo hi ->
                 seg_sweep_mul s.sl_re.(sl) s.sl_im.(sl) sw (sl lsl s.sb) lo hi)
         | None -> ());
      if nlow < k then begin
        (* the rest streams over rows of 2^p amplitudes, in ascending
           bit order after the slab-local rounds *)
        let p = min bits.(nlow) s.sb in
        let hbits = Array.init (k - nlow) (fun i -> bits.(nlow + i) - p) in
        let hmask = Array.fold_left (fun m b -> m lor (1 lsl b)) 0 hbits in
        run_range s (1 lsl p)
          (seg_had_high s (offs_of hbits) hmask p (k - nlow))
      end
  | K_dense { pre; bits; offs; u_re; u_im } ->
      let k = Array.length bits in
      if bits_local s bits then begin
        let dim = Array.length offs in
        run_chunks s ~units:(slab_size s lsr k) (fun slo shi lo hi ->
            let ar = Array.make dim 0. and ai = Array.make dim 0. in
            let br = Array.make dim 0. and bi = Array.make dim 0. in
            for sl = slo to shi - 1 do
              seg_dense s.sl_re.(sl) s.sl_im.(sl) bits offs u_re u_im pre ar ai
                br bi (sl lsl s.sb) lo hi
            done)
      end
      else run_range s (size s lsr k) (seg_dense_g s bits offs u_re u_im pre)

(* Shard classification for telemetry: slab-local kernels touch no
   amplitude outside their slab (diagonals qualify at any layout). *)
let kernel_local s = function
  | K_sweep _ | K_diag _ -> true
  | K_gate g -> is_diag g || gate_mask g land lnot s.smask = 0
  | K_perm { bits; _ } | K_had { bits; _ } | K_dense { bits; _ } ->
      bits_local s bits
  | K_perm_full _ -> false

(** [hadamard_prefix p] is [(start, mask, rounds)] for the plan's
    leading Hadamard kernels that carry no pre-sweep and touch disjoint
    qubits: [start] kernels, on the qubits of [mask], [rounds] of them.
    From |0…0⟩ every butterfly of those kernels has a zero partner, so
    each round maps a value v to [sqrt2inv *. v] on the cube of [mask]
    and leaves +0.0 elsewhere: the kernels' output is the state
    [Sv_shard.init_cube] builds, bit for bit. *)
let hadamard_prefix p =
  let rec go i mask rounds =
    if i = Array.length p.ops then (i, mask, rounds)
    else
      match p.ops.(i) with
      | K_had { pre = None; bits; _ } ->
          let m = Array.fold_left (fun m b -> m lor (1 lsl b)) 0 bits in
          if m land mask = 0 then go (i + 1) (mask lor m) (rounds + Array.length bits)
          else (i, mask, rounds)
      | _ -> (i, mask, rounds)
  in
  go 0 0 0

(** [execute_from p s start] replays the schedule from kernel [start]
    on in place: the state is what the first [start] kernels would have
    left. On sharded states it also counts slab-local vs cross-slab
    kernels and the number of exchange rounds (maximal runs of
    consecutive cross-slab kernels) into the [sv.shard.*] counters,
    over the whole schedule, so the totals do not depend on [start]. *)
let execute_from p s start =
  if p.n <> num_qubits s then
    invalid_arg "Statevector.Plan.execute: qubit mismatch";
  let scratch = ref None in
  if not (sharded s) then
    for i = start to Array.length p.ops - 1 do
      exec_kernel s scratch p.ops.(i)
    done
  else begin
    let locals = ref 0 and exch = ref 0 and rounds = ref 0 in
    let in_exchange = ref false in
    Array.iteri
      (fun i k ->
        (if kernel_local s k then begin
           incr locals;
           in_exchange := false
         end
         else begin
           incr exch;
           if not !in_exchange then begin
             incr rounds;
             in_exchange := true
           end
         end);
        if i >= start then exec_kernel s scratch k)
      p.ops;
    if Obs.enabled () then begin
      if !locals > 0 then Obs.count ~by:!locals "sv.shard.local_blocks";
      if !exch > 0 then Obs.count ~by:!exch "sv.shard.exchange_blocks";
      if !rounds > 0 then Obs.count ~by:!rounds "sv.shard.exchange_rounds"
    end
  end

(** [execute p s] replays the whole schedule on [s] in place. *)
let execute p s = execute_from p s 0

type stats = {
  ops : int;
  blocks : int;
  fused_gates : int;
  source_gates : int;
  dense : int;
  perm : int; (* narrow + full-width permutation blocks *)
  diag : int;
  had : int; (* fused Hadamard (Kronecker) blocks *)
  sweeps : int; (* standalone + folded (build-folded sweeps vanish) *)
  passthrough : int;
}

(** [stats p] summarizes the schedule (tests and CLIs read this). *)
let stats (p : t) =
  let dense = ref 0 and perm = ref 0 and diag = ref 0 in
  let had = ref 0 and sweeps = ref 0 and passthrough = ref 0 in
  Array.iter
    (function
      | K_gate _ -> incr passthrough
      | K_sweep _ -> incr sweeps
      | K_diag _ -> incr diag
      | K_perm { pre; _ } ->
          incr perm;
          if pre <> None then incr sweeps
      | K_perm_full _ -> incr perm
      | K_had { pre; _ } ->
          incr had;
          if pre <> None then incr sweeps
      | K_dense { pre; _ } ->
          incr dense;
          if pre <> None then incr sweeps)
    p.ops;
  { ops = Array.length p.ops; blocks = p.blocks; fused_gates = p.fused_gates;
    source_gates = p.source_gates; dense = !dense; perm = !perm;
    diag = !diag; had = !had; sweeps = !sweeps; passthrough = !passthrough }
