(* Statevector kernel-plan layer: replay equivalence against the unfused
   reference, block classification, deterministic parallel reductions,
   jobs-invariance, and the plan/sampler reuse counters. *)

open Qc

(* run/run_on only engage the planner at >= fuse_min_qubits, so small
   property circuits drive Plan.build/Plan.execute directly. *)
let run_planned c =
  let s = Statevector.init (Circuit.num_qubits c) in
  Statevector.Plan.execute (Statevector.Plan.build c) s;
  s

let amp_close ?(eps = 1e-9) (a : Complex.t) (b : Complex.t) =
  Float.abs (a.re -. b.re) < eps && Float.abs (a.im -. b.im) < eps

let same_amplitudes ?eps s1 s2 =
  Statevector.size s1 = Statevector.size s2
  && (let ok = ref true in
      for x = 0 to Statevector.size s1 - 1 do
        if not (amp_close ?eps (Statevector.amplitude s1 x) (Statevector.amplitude s2 x))
        then ok := false
      done;
      !ok)

let plan_equiv c = same_amplitudes (run_planned c) (Statevector.run ~fuse:false c)

(* --- qcheck: planned = unfused on three circuit families --- *)

let seeded_circuit_gen mk =
  QCheck2.Gen.map
    (fun seed -> mk (Helpers.rng seed))
    QCheck2.Gen.(int_bound 1_000_000)

(* H layer then only diagonal gates: exercises sweeps, K_diag and
   build-time sweep folding into full-width blocks. *)
let diag_heavy st n len =
  let gates = ref [] in
  for _ = 1 to len do
    let q = Random.State.int st n in
    let g =
      match Random.State.int st 7 with
      | 0 -> Gate.T q
      | 1 -> Gate.Tdg q
      | 2 -> Gate.S q
      | 3 -> Gate.Sdg q
      | 4 -> Gate.Z q
      | 5 -> Gate.Rz (Random.State.float st 6.28 -. 3.14, q)
      | _ ->
          let q2 = (q + 1 + Random.State.int st (n - 1)) mod n in
          Gate.Cz (q, q2)
    in
    gates := g :: !gates
  done;
  Circuit.of_gates n (List.init n (fun q -> Gate.H q) @ List.rev !gates)

(* H on a couple of qubits then classical gates only: exercises K_perm /
   K_perm_full scatter kernels including the unit-phase move-only path. *)
let perm_heavy st n len =
  let gates = ref [] in
  for _ = 1 to len do
    let q = Random.State.int st n in
    let q2 = (q + 1 + Random.State.int st (n - 1)) mod n in
    let g =
      match Random.State.int st 4 with
      | 0 -> Gate.X q
      | 1 -> Gate.Cnot (q, q2)
      | 2 -> Gate.Swap (q, q2)
      | _ ->
          let q3 = (max q q2 + 1) mod n in
          if q3 = q || q3 = q2 then Gate.Cnot (q, q2) else Gate.Ccx (q, q2, q3)
    in
    gates := g :: !gates
  done;
  Circuit.of_gates n ([ Gate.H 0; Gate.H 1 ] @ List.rev !gates)

let prop_diag_heavy =
  Helpers.prop "plan = unfused on diagonal-heavy circuits" ~count:50
    (seeded_circuit_gen (fun st -> diag_heavy st 5 60))
    plan_equiv

let prop_perm_heavy =
  Helpers.prop "plan = unfused on permutation-heavy circuits" ~count:50
    (seeded_circuit_gen (fun st -> perm_heavy st 5 60))
    plan_equiv

(* Mixed H/T/CNOT on overlapping supports: forms genuinely dense 2-3q
   blocks alongside Hadamard and monomial ones. *)
let prop_general_dense =
  Helpers.prop "plan = unfused on general Clifford+T circuits" ~count:50
    QCheck2.Gen.(
      let* seed = int_bound 1_000_000 in
      Helpers.qcircuit_gen ~diagonals:(seed mod 2 = 0) 4 50)
    plan_equiv

(* Gates the random generators never emit: Rz runs, a Swap barrier, Mcz
   and Ccz; then an X run that composes to an exact permutation. Each
   replays on one slab and on 2-amplitude slabs (every multi-qubit
   kernel crosses slabs). *)
let rz_swap_mcz =
  Circuit.of_gates 4
    [ Gate.H 0; Gate.Rz (0.3, 0); Gate.Rz (-1.1, 0); Gate.T 0; Gate.Z 0;
      Gate.Cz (0, 1); Gate.Swap (1, 2); Gate.H 2; Gate.S 2; Gate.Sdg 2;
      Gate.Mcz [ 0; 1; 2; 3 ]; Gate.Ccz (0, 1, 3); Gate.Rz (0.7, 3);
      Gate.T 1; Gate.Sdg 2 ]

let x_run = Circuit.of_gates 2 [ Gate.X 0; Gate.X 0; Gate.X 0; Gate.X 1 ]

let with_shard sb f =
  Statevector.set_shard_bits sb;
  Fun.protect ~finally:(fun () -> Statevector.set_shard_bits None) f

let test_fixed_circuits () =
  List.iter
    (fun shard ->
      let layout = match shard with None -> "one slab" | Some _ -> "sharded" in
      with_shard shard (fun () ->
          Alcotest.(check bool) ("rz/swap/mcz circuit, " ^ layout) true
            (plan_equiv rz_swap_mcz);
          Alcotest.(check bool) ("X run, " ^ layout) true (plan_equiv x_run);
          (* the X run fuses to an exact permutation: amplitudes stay 0/1 *)
          Alcotest.(check bool) ("X run exactly |11>, " ^ layout) true
            (Statevector.prob (run_planned x_run) 0b11 = 1.)))
    [ None; Some 1 ]

(* --- X frame: X gates pushed through diagonal runs --- *)

(* H layers (a random subset of the qubits) around runs of diagonal
   gates with X gates mixed in: an X mask before the run, single X's
   inside it, and after it the same mask again (cancelling) or nothing
   (a leftover mask). Some runs are too short to become sweeps. *)
let frame_circuit st n =
  let gates = ref [] in
  let add g = gates := g :: !gates in
  let h_layer () =
    for q = 0 to n - 1 do
      if Random.State.int st 4 > 0 then add (Gate.H q)
    done
  in
  let distinct k =
    let rec go acc =
      if List.length acc = k then acc
      else
        let q = Random.State.int st n in
        go (if List.mem q acc then acc else q :: acc)
    in
    go []
  in
  let diag () =
    let q = Random.State.int st n in
    match Random.State.int st 10 with
    | 0 -> Gate.Z q
    | 1 -> Gate.S q
    | 2 -> Gate.Sdg q
    | 3 -> Gate.T q
    | 4 -> Gate.Tdg q
    | 5 -> Gate.Rz (Random.State.float st 6.28 -. 3.14, q)
    | 6 | 7 -> ( match distinct 2 with [ a; b ] -> Gate.Cz (a, b) | _ -> assert false)
    | 8 -> ( match distinct 3 with [ a; b; c ] -> Gate.Ccz (a, b, c) | _ -> assert false)
    | _ -> Gate.Mcz (distinct (2 + Random.State.int st 3))
  in
  let xs mask =
    for q = 0 to n - 1 do
      if mask land (1 lsl q) <> 0 then add (Gate.X q)
    done
  in
  h_layer ();
  for _ = 1 to 3 do
    let mask = if Random.State.bool st then Random.State.int st (1 lsl n) else 0 in
    xs mask;
    for _ = 1 to 1 + Random.State.int st 8 do
      if Random.State.int st 4 = 0 then add (Gate.X (Random.State.int st n));
      add (diag ())
    done;
    if Random.State.bool st then xs mask;
    h_layer ()
  done;
  Circuit.of_gates n (List.rev !gates)

let prop_frame =
  Helpers.prop "plan = unfused on X-framed diagonal runs" ~count:40
    (seeded_circuit_gen (fun st -> frame_circuit st (10 + Random.State.int st 3)))
    (fun c ->
      let reference = Statevector.run ~fuse:false c in
      List.for_all
        (fun sb ->
          with_shard sb (fun () -> same_amplitudes ~eps:1e-12 (run_planned c) reference))
        [ None; Some 2; Some 3 ])

(* The hidden shift's X^s·oracle·X^s collapses into a sweep folded into
   the next Hadamard pass: the plan is Hadamard kernels only. *)
let test_inner_product_plan () =
  List.iter
    (fun (pairs, s) ->
      let c = Core.Hidden_shift.build (Core.Hidden_shift.Inner_product { n = pairs; s }) in
      let st = Statevector.Plan.stats (Statevector.Plan.build c) in
      let name = Printf.sprintf "%d qubits, shift %d: " (2 * pairs) s in
      Alcotest.(check int) (name ^ "perm") 0 st.Statevector.Plan.perm;
      Alcotest.(check int) (name ^ "diag") 0 st.Statevector.Plan.diag;
      Alcotest.(check int) (name ^ "dense") 0 st.Statevector.Plan.dense;
      Alcotest.(check int) (name ^ "Hadamard kernels only") st.Statevector.Plan.ops
        st.Statevector.Plan.had;
      Alcotest.(check int) (name ^ "both oracles folded") 2 st.Statevector.Plan.sweeps)
    [ (6, 0); (6, 0b101100111010); (8, 0xb5e3); (8, 0xffff) ]

(* The offset table against its definition: bit b of j sets bits.(b). *)
let offs_reference (bits : int array) =
  let k = Array.length bits in
  Array.init (1 lsl k) (fun j ->
      let o = ref 0 in
      for b = 0 to k - 1 do
        if j land (1 lsl b) <> 0 then o := !o lor (1 lsl bits.(b))
      done;
      !o)

let prop_offs_of =
  Helpers.prop "offs_of = bitwise definition" ~count:60
    QCheck2.Gen.(
      let* k = int_bound 16 in
      let* picks = list_repeat k (int_bound 40) in
      return (Array.of_list (List.sort_uniq compare picks)))
    (fun bits -> Statevector.Plan.offs_of bits = offs_reference bits)

(* --- Hadamard replay = the one-round-at-a-time loop, bit for bit --- *)

(* The radix-2 loop the Hadamard kernels used to run, kept as the
   reference: gather each group (times the pre-sweep's phase, built the
   same way the kernels build it), one round per bit in ascending order
   testing every index, scatter. Runs on flat global-index arrays. *)
let reference_had n (re : float array) (im : float array) bits pre =
  let module Sv = Statevector in
  let k = Array.length bits in
  let dim = 1 lsl k in
  let offs = Sv.Plan.offs_of bits in
  let ar = Array.make dim 0. and ai = Array.make dim 0. in
  for i = 0 to (1 lsl (n - k)) - 1 do
    let base = Sv.Plan.expand bits i in
    for j = 0 to dim - 1 do
      let idx = base lor offs.(j) in
      match pre with
      | None ->
          ar.(j) <- re.(idx);
          ai.(j) <- im.(idx)
      | Some (sw : Sv.sweep) ->
          let l = idx land sw.half_mask and g = idx lsr sw.h in
          let pr0 = sw.lo_re.(l) and pi0 = sw.lo_im.(l) in
          let qr = sw.hi_re.(g) and qi = sw.hi_im.(g) in
          let pr = ref ((pr0 *. qr) -. (pi0 *. qi))
          and pi = ref ((pr0 *. qi) +. (pi0 *. qr)) in
          Array.iter
            (fun (tm : Sv.dterm) ->
              if idx land tm.mask = tm.want then begin
                let r = !pr and i = !pi in
                pr := (r *. tm.pre) -. (i *. tm.pim);
                pi := (r *. tm.pim) +. (i *. tm.pre)
              end)
            sw.straddling;
          let vr = re.(idx) and vi = im.(idx) in
          ar.(j) <- (!pr *. vr) -. (!pi *. vi);
          ai.(j) <- (!pr *. vi) +. (!pi *. vr)
    done;
    for b = 0 to k - 1 do
      let st = 1 lsl b in
      for x = 0 to dim - 1 do
        if x land st = 0 then begin
          let y = x lor st in
          let xr = ar.(x) and xi = ai.(x) in
          let yr = ar.(y) and yi = ai.(y) in
          ar.(x) <- Sv.sqrt2inv *. (xr +. yr);
          ai.(x) <- Sv.sqrt2inv *. (xi +. yi);
          ar.(y) <- Sv.sqrt2inv *. (xr -. yr);
          ai.(y) <- Sv.sqrt2inv *. (xi -. yi)
        end
      done
    done;
    for j = 0 to dim - 1 do
      let idx = base lor offs.(j) in
      re.(idx) <- ar.(j);
      im.(idx) <- ai.(j)
    done
  done

(* A random sweep on n qubits: terms on 1-3 random qubits, plus one
   across the table halves' midline, so the per-index straddling path
   always runs too. *)
let random_sweep st n =
  let term mask =
    let a = Random.State.float st 6.28 in
    Statevector.dterm mask (Random.State.int st (1 lsl n) land mask)
      { Complex.re = cos a; im = sin a }
  in
  let random_mask () =
    let mask = ref 0 in
    for _ = 1 to 1 + Random.State.int st 3 do
      mask := !mask lor (1 lsl Random.State.int st n)
    done;
    !mask
  in
  let midline = (1 lsl 0) lor (1 lsl (n - 1)) in
  Statevector.sweep_of_terms n
    (Array.init (3 + Random.State.int st 6) (fun i ->
         term (if i = 0 then midline else random_mask ())))

(* [had_replay_matches n bits pre layouts st] loads one random state,
   replays a lone K_had on it under each layout, and compares every
   amplitude's bits with the reference. *)
let had_replay_matches st n bits pre layouts =
  let dim = 1 lsl n in
  let re = Array.init dim (fun _ -> Random.State.float st 2. -. 1.) in
  let im = Array.init dim (fun _ -> Random.State.float st 2. -. 1.) in
  let plan =
    { Statevector.Plan.n; blocks = 1; fused_gates = 0; source_gates = 0;
      ops = [| Statevector.Plan.K_had { pre; bits; offs = Statevector.Plan.offs_of bits } |] }
  in
  let replay () =
    let s = Statevector.init n in
    Array.iteri (fun x v -> Statevector.set_re s x v) re;
    Array.iteri (fun x v -> Statevector.set_im s x v) im;
    Statevector.Plan.execute plan s;
    s
  in
  let outs = List.map (fun layout -> layout (fun () -> replay ())) layouts in
  let rre = Array.copy re and rim = Array.copy im in
  reference_had n rre rim bits pre;
  let same a b = Int64.bits_of_float a = Int64.bits_of_float b in
  List.for_all
    (fun s ->
      let ok = ref true in
      for x = 0 to dim - 1 do
        if not (same (Statevector.get_re s x) rre.(x) && same (Statevector.get_im s x) rim.(x))
        then ok := false
      done;
      !ok)
    outs

(* k = 1..8 bits out of 8-12 qubits: contiguous runs (the in-place
   path) and scattered sets (the gather path), with and without a
   pre-sweep; on one slab, on 4- and 8-amplitude slabs (the upper bits
   stream across slabs) and on 1024-amplitude slabs (four 256-column
   tiles inside one chunk). A third of the draws are contiguous runs
   from bit 8-12 on 13-14 qubits, on one slab and on 8-amplitude slabs:
   there the in-place path's rounds at bit 12 and above run, after the
   L1 blocks' lower rounds when the run starts below bit 12. *)
let prop_had_reference =
  Helpers.prop "K_had replay = radix-2 reference, bit for bit" ~count:60
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let st = Helpers.rng seed in
      if Random.State.int st 3 = 0 then begin
        let n = 13 + Random.State.int st 2 in
        let b0 = 8 + Random.State.int st 5 in
        let k = 1 + Random.State.int st (min 8 (n - b0)) in
        let bits = Array.init k (fun i -> b0 + i) in
        let pre = if Random.State.bool st then Some (random_sweep st n) else None in
        had_replay_matches st n bits pre
          (List.map (fun sb f -> with_shard sb f) [ None; Some 3 ])
      end
      else
      let n = 8 + Random.State.int st 5 in
      let k = 1 + Random.State.int st 8 in
      let bits =
        if Random.State.bool st then
          let b0 = Random.State.int st (n - k + 1) in
          Array.init k (fun i -> b0 + i)
        else begin
          let chosen = Array.make n false and c = ref 0 in
          while !c < k do
            let q = Random.State.int st n in
            if not chosen.(q) then begin
              chosen.(q) <- true;
              incr c
            end
          done;
          Array.of_list (List.filter (fun q -> chosen.(q)) (List.init n Fun.id))
        end
      in
      let pre = if Random.State.bool st then Some (random_sweep st n) else None in
      had_replay_matches st n bits pre
        (List.map (fun sb f -> with_shard sb f) [ None; Some 2; Some 3; Some 10 ]))

(* --- classification: stats match the circuit's structure --- *)

let test_stats_diag () =
  let c = diag_heavy (Helpers.rng 3) 4 40 in
  let st = Statevector.Plan.stats (Statevector.Plan.build c) in
  Alcotest.(check bool) "diagonal work planned" true
    (st.Statevector.Plan.diag + st.Statevector.Plan.sweeps
     + st.Statevector.Plan.perm
     > 0);
  Alcotest.(check int) "no dense blocks" 0 st.Statevector.Plan.dense;
  Alcotest.(check bool) "H layer fused" true (st.Statevector.Plan.had >= 1)

let test_stats_perm () =
  let c =
    Circuit.of_gates 4
      [ Gate.X 0; Gate.Cnot (0, 1); Gate.Swap (1, 2); Gate.Ccx (0, 1, 3) ]
  in
  let p = Statevector.Plan.build c in
  let st = Statevector.Plan.stats p in
  Alcotest.(check int) "one block" 1 st.Statevector.Plan.blocks;
  Alcotest.(check int) "classified as permutation" 1 st.Statevector.Plan.perm;
  Alcotest.(check int) "no dense" 0 st.Statevector.Plan.dense;
  (* cross-check at the matrix level: the block really is a permutation *)
  match Unitary.is_permutation (Unitary.of_circuit c) with
  | Some _ -> ()
  | None -> Alcotest.fail "circuit unitary is not a permutation"

let test_stats_dense () =
  (* H sandwiched between non-commuting gates on one support: dense block *)
  let c =
    Circuit.of_gates 4
      [ Gate.T 0; Gate.H 0; Gate.T 0; Gate.Cnot (0, 1); Gate.H 0; Gate.T 1 ]
  in
  let st = Statevector.Plan.stats (Statevector.Plan.build c) in
  Alcotest.(check bool) "dense block formed" true (st.Statevector.Plan.dense >= 1)

let test_diag_block_is_diagonal () =
  (* matrix-level cross-check of the diagonal classification *)
  let c =
    Circuit.of_gates 3
      [ Gate.T 0; Gate.S 1; Gate.Cz (0, 1); Gate.Ccz (0, 1, 2); Gate.Tdg 2 ]
  in
  Alcotest.(check bool) "unitary is diagonal" true
    (Unitary.is_diagonal (Unitary.of_circuit c));
  Alcotest.(check bool) "planned replay agrees" true (plan_equiv c)

let test_identity_elimination () =
  (* classical gates composing to the identity vanish from the schedule *)
  let c =
    Circuit.of_gates 4
      [ Gate.X 0; Gate.Cnot (0, 1); Gate.Cnot (0, 1); Gate.X 0;
        Gate.Swap (2, 3); Gate.Swap (2, 3) ]
  in
  let st = Statevector.Plan.stats (Statevector.Plan.build c) in
  Alcotest.(check int) "identity block dropped" 0 st.Statevector.Plan.ops;
  Alcotest.(check bool) "still correct" true (plan_equiv c)

(* --- jobs-invariance: bit-identical amplitudes and reductions --- *)

let with_jobs jobs f =
  Par.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Par.set_default_jobs 1) f

(* 15 qubits puts the state (2^15) above par_threshold (2^14), so the
   parallel kernels and chunked reductions actually engage. *)
let wide_circuit =
  lazy
    (Circuit.of_gates 15
       (List.init 15 (fun q -> Gate.H q)
       @ List.concat
           (List.init 2 (fun _ ->
                List.init 15 (fun q -> Gate.T q)
                @ List.init 14 (fun q -> Gate.Cnot (q, q + 1))))))

let test_jobs_invariance () =
  let c = Lazy.force wide_circuit in
  Statevector.clear_plan_cache ();
  let s1 = with_jobs 1 (fun () -> Statevector.run c) in
  Statevector.clear_plan_cache ();
  let s4 = with_jobs 4 (fun () -> Statevector.run c) in
  let identical = ref true in
  for x = 0 to Statevector.size s1 - 1 do
    let a = Statevector.amplitude s1 x and b = Statevector.amplitude s4 x in
    if not (a.re = b.re && a.im = b.im) then identical := false
  done;
  Alcotest.(check bool) "amplitudes bit-identical across --jobs" true !identical

(* Whole-state H layers: on one slab above par_threshold the top bits
   stream in column chunks so every domain gets work; amplitudes stay
   bit-identical to the reference at every pool width. So do a
   contiguous block that ends at the top bit (split like a layer) and a
   scattered one that holds it (enough groups, not split). *)
let test_had_layer_jobs () =
  List.iter
    (fun (n, bits) ->
      let st = Helpers.rng n in
      let name =
        if Array.length bits = n then Printf.sprintf "%d-qubit H layer" n
        else
          Printf.sprintf "H on {%s} of %d qubits"
            (String.concat "," (Array.to_list (Array.map string_of_int bits)))
            n
      in
      List.iter
        (fun pre ->
          Alcotest.(check bool)
            (Printf.sprintf "%s%s, jobs 1/2/4" name
               (if pre = None then "" else " with a pre-sweep"))
            true
            (had_replay_matches st n bits pre
               (List.map (fun j f -> with_jobs j f) [ 1; 2; 4 ])))
        [ None; Some (random_sweep st n) ])
    [ (14, Array.init 14 Fun.id); (16, Array.init 16 Fun.id);
      (16, Array.init 12 (fun i -> 4 + i)); (16, [| 0; 3; 15 |]) ]

let test_reduction_determinism () =
  let c = Lazy.force wide_circuit in
  let s = Statevector.run c in
  let n1, p1, smp1 =
    with_jobs 1 (fun () ->
        (Statevector.norm2 s, Statevector.prob_of_qubit s 7, Statevector.sampler s))
  in
  let n4, p4, smp4 =
    with_jobs 4 (fun () ->
        (Statevector.norm2 s, Statevector.prob_of_qubit s 7, Statevector.sampler s))
  in
  Alcotest.(check bool) "norm2 bit-identical" true (n1 = n4);
  Alcotest.(check bool) "prob_of_qubit bit-identical" true (p1 = p4);
  for seed = 0 to 20 do
    Alcotest.(check int) "sampler draws identical"
      (Statevector.sample_with smp1 (Helpers.rng seed))
      (Statevector.sample_with smp4 (Helpers.rng seed))
  done

(* --- the strided sampler draws what the full table drew --- *)

(* The sampler the strided table replaced: every running sum of the
   2^n probabilities (one run, or above par_threshold one per reduce
   block from the sum of the blocks before it), and a binary search
   over all of them. *)
let reference_cdf s =
  let sz = Statevector.size s in
  let cdf = Array.make sz 0. in
  let fill off lo hi =
    let acc = ref off in
    for x = lo to hi - 1 do
      let r = Statevector.get_re s x and i = Statevector.get_im s x in
      acc := !acc +. (r *. r) +. (i *. i);
      cdf.(x) <- !acc
    done
  in
  if sz <= Statevector.par_threshold then fill 0. 0 sz
  else begin
    let k = Statevector.reduce_blocks in
    let off = ref 0. in
    for i = 0 to k - 1 do
      let lo = sz * i / k and hi = sz * (i + 1) / k in
      fill !off lo hi;
      off := !off +. Statevector.seg_sum2 s lo hi
    done
  end;
  cdf

let reference_sampler cdf r =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > r then hi := mid else lo := mid + 1
  done;
  !lo

(* A random state of 1-16 qubits: non-dyadic amplitudes on every index,
   or on a few indices chosen at stride edges (64j - 1, 64j), reduce-block
   edges and at random; normalized, or a little short of norm 1 so
   draws run past the last sum. *)
let random_state st =
  let n = 1 + Random.State.int st 16 in
  let sz = 1 lsl n in
  let s = Statevector.init n in
  Statevector.set_re s 0 0.;
  let put x =
    if x >= 0 && x < sz then begin
      Statevector.set_re s x (Random.State.float st 1. -. 0.5);
      Statevector.set_im s x (Random.State.float st 1. -. 0.5)
    end
  in
  if Random.State.bool st then
    for x = 0 to sz - 1 do
      put x
    done
  else begin
    let block = max 1 (sz / Statevector.reduce_blocks) in
    for _ = 1 to 1 + Random.State.int st 12 do
      let edge = match Random.State.int st 3 with 0 -> 64 | 1 -> block | _ -> 1 in
      let x = edge * Random.State.int st (max 1 (sz / edge)) in
      put x;
      if Random.State.bool st then put (x - 1)
    done
  end;
  let norm = Statevector.norm2 s in
  let scale = (if Random.State.int st 4 = 0 then 0.999 else 1.) /. sqrt norm in
  for x = 0 to sz - 1 do
    Statevector.set_re s x (scale *. Statevector.get_re s x);
    Statevector.set_im s x (scale *. Statevector.get_im s x)
  done;
  s

(* On random states laid out on one slab or in slabs of 4 or 32
   amplitudes, built at jobs 1, 2 or 4: [cdf_at] reads every running
   sum of the full table, and draws equal the full table's binary
   search at each sum, the floats either side of it, and random draws. *)
let prop_strided_sampler =
  Helpers.prop "strided sampler = full-table sampler" ~count:150
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let st = Helpers.rng seed in
      let shard = [| None; Some 2; Some 5 |].(Random.State.int st 3) in
      let jobs = [| 1; 2; 4 |].(Random.State.int st 3) in
      let s = with_shard shard (fun () -> random_state st) in
      let smp = with_jobs jobs (fun () -> Statevector.sampler s) in
      let cdf = reference_cdf s in
      let ok = ref true in
      let draw r =
        if Statevector.sample_at smp r <> reference_sampler cdf r then ok := false
      in
      Array.iteri
        (fun x c ->
          if not (Float.equal (Statevector.cdf_at smp x) c) then ok := false;
          draw c;
          draw (Float.pred c);
          draw (Float.succ c))
        cdf;
      draw 0.;
      draw (Float.pred 1.);
      for k = 0 to 63 do
        let r = Random.State.float (Helpers.rng (seed + k)) 1. in
        if Statevector.sample_with smp (Helpers.rng (seed + k)) <> reference_sampler cdf r
        then ok := false
      done;
      !ok)

let test_obs_totals_jobs_invariant () =
  let c = Lazy.force wide_circuit in
  let totals jobs =
    let m = Obs.Memory.create () in
    Obs.reset ();
    Obs.set_sink (Some (Obs.Memory.sink m));
    Fun.protect
      ~finally:(fun () -> Obs.set_sink None)
      (fun () ->
        Statevector.clear_plan_cache ();
        with_jobs jobs (fun () -> ignore (Statevector.run c)));
    Obs.Summary.counter_totals (Obs.Memory.events m)
  in
  let t1 = totals 1 and t4 = totals 4 in
  Alcotest.(check (list (pair string int)))
    "telemetry counter totals identical across --jobs" t1 t4;
  Alcotest.(check bool) "plan blocks counted" true
    (match List.assoc_opt "sv.plan.blocks" t1 with Some n -> n > 0 | None -> false)

(* --- plan cache and sampler reuse across shots --- *)

let with_memory_sink f =
  let m = Obs.Memory.create () in
  Obs.reset ();
  Obs.set_sink (Some (Obs.Memory.sink m));
  Fun.protect ~finally:(fun () -> Obs.set_sink None) f;
  Obs.Summary.counter_totals (Obs.Memory.events m)

let test_plan_cache_replay () =
  let c = Lazy.force wide_circuit in
  let totals =
    with_memory_sink (fun () ->
        Statevector.clear_plan_cache ();
        ignore (Statevector.run c);
        ignore (Statevector.run c);
        ignore (Statevector.run c))
  in
  Alcotest.(check (option int)) "two cache replays"
    (Some 2)
    (List.assoc_opt "sv.plan.replay" totals)

let test_noise_sampler_reuse () =
  let c = Lazy.force wide_circuit in
  let totals =
    with_memory_sink (fun () ->
        Statevector.clear_plan_cache ();
        ignore (Noise.run_shots Noise.noiseless c ~shots:32);
        ignore (Noise.run_shots Noise.noiseless c ~shots:32))
  in
  (match List.assoc_opt "qc.noise.sampler_reuse" totals with
  | Some n when n >= 1 -> ()
  | _ -> Alcotest.fail "second noiseless run did not reuse the sampler");
  (* one plan build serves every shot of both runs *)
  match List.assoc_opt "sv.plan.blocks" totals with
  | Some _ -> ()
  | None -> Alcotest.fail "noiseless shots never built a plan"

let () =
  Alcotest.run "plan"
    [ ( "replay-equivalence",
        [ prop_diag_heavy; prop_perm_heavy; prop_general_dense;
          Alcotest.test_case "plan = unfused on fixed circuits" `Quick
            test_fixed_circuits ] );
      ( "classification",
        [ Alcotest.test_case "diag-heavy stats" `Quick test_stats_diag;
          Alcotest.test_case "perm block" `Quick test_stats_perm;
          Alcotest.test_case "dense block" `Quick test_stats_dense;
          Alcotest.test_case "diagonal matrix cross-check" `Quick
            test_diag_block_is_diagonal;
          Alcotest.test_case "identity elimination" `Quick
            test_identity_elimination ] );
      ( "determinism",
        [ Alcotest.test_case "jobs-invariant amplitudes" `Quick
            test_jobs_invariance;
          Alcotest.test_case "H layers bit-identical across --jobs" `Quick
            test_had_layer_jobs;
          Alcotest.test_case "jobs-invariant reductions" `Quick
            test_reduction_determinism;
          Alcotest.test_case "jobs-invariant telemetry totals" `Quick
            test_obs_totals_jobs_invariant;
          prop_strided_sampler ] );
      ( "frame",
        [ prop_frame;
          Alcotest.test_case "inner product plans to Hadamards" `Quick
            test_inner_product_plan;
          prop_offs_of ] );
      ("hadamard", [ prop_had_reference ]);
      ( "reuse",
        [ Alcotest.test_case "plan cache replay counter" `Quick
            test_plan_cache_replay;
          Alcotest.test_case "noiseless sampler reuse" `Quick
            test_noise_sampler_reuse ] ) ]
