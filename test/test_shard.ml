(* Sharded statevector layer: sharded replay equals the single-slab
   reference on every plan family, amplitudes / sampler draws / telemetry
   totals are bit-identical across jobs × shard-bits configurations, the
   commuting-block peephole preserves the circuit unitary, the memory
   guard refuses over-cap allocations, and the LRU plan cache evicts
   least-recently-used entries. *)

open Qc

let with_shard sb f =
  Statevector.set_shard_bits sb;
  Fun.protect ~finally:(fun () -> Statevector.set_shard_bits None) f

let with_jobs jobs f =
  Par.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Par.set_default_jobs 1) f

let run_planned c =
  let s = Statevector.init (Circuit.num_qubits c) in
  Statevector.Plan.execute (Statevector.Plan.build c) s;
  s

let amp_close (a : Complex.t) (b : Complex.t) =
  Float.abs (a.re -. b.re) < 1e-9 && Float.abs (a.im -. b.im) < 1e-9

let same_amplitudes s1 s2 =
  Statevector.size s1 = Statevector.size s2
  && (let ok = ref true in
      for x = 0 to Statevector.size s1 - 1 do
        if not (amp_close (Statevector.amplitude s1 x) (Statevector.amplitude s2 x))
        then ok := false
      done;
      !ok)

let bit_identical s1 s2 =
  let identical = ref true in
  for x = 0 to Statevector.size s1 - 1 do
    let a = Statevector.amplitude s1 x and b = Statevector.amplitude s2 x in
    if not (a.re = b.re && a.im = b.im) then identical := false
  done;
  !identical

(* Sharded runs (down to 2-amplitude slabs: the most adversarial layout,
   every multi-qubit kernel crosses slabs) equal the flat runs bit for
   bit, both for plan replay and gate by gate. *)
let shard_equiv c =
  let gate_by_gate () = Statevector.run ~fuse:false c in
  let flat_plan = run_planned c and flat_gates = gate_by_gate () in
  let ok = ref true in
  for sb = 1 to 3 do
    with_shard (Some sb) (fun () ->
        if not (bit_identical flat_plan (run_planned c)) then ok := false;
        if not (bit_identical flat_gates (gate_by_gate ())) then ok := false)
  done;
  !ok

let seeded_circuit_gen mk =
  QCheck2.Gen.map
    (fun seed -> mk (Helpers.rng seed))
    QCheck2.Gen.(int_bound 1_000_000)

(* The same three circuit families test_plan checks against the unfused
   reference — here flat-planned vs sharded-planned. *)
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

let prop_shard_diag =
  Helpers.prop "sharded = flat on diagonal-heavy circuits" ~count:40
    (seeded_circuit_gen (fun st -> diag_heavy st 5 60))
    shard_equiv

let prop_shard_perm =
  Helpers.prop "sharded = flat on permutation-heavy circuits" ~count:40
    (seeded_circuit_gen (fun st -> perm_heavy st 5 60))
    shard_equiv

let prop_shard_general =
  Helpers.prop "sharded = flat on general Clifford+T circuits" ~count:40
    QCheck2.Gen.(
      let* seed = int_bound 1_000_000 in
      Helpers.qcircuit_gen ~diagonals:(seed mod 2 = 0) 4 50)
    shard_equiv

(* --- bit-identity across jobs × shard-bits --- *)

(* 15 qubits puts the state (2^15) above par_threshold (2^14), so the
   parallel kernels, cross-slab passes and chunked reductions engage.
   The trailing H block touches only qubits 0-5: it fuses into its own
   butterfly kernel whose bits sit below every shard-bits setting used
   here, keeping at least one slab-local kernel in the schedule. *)
let wide_circuit =
  lazy
    (Circuit.of_gates 15
       (List.init 15 (fun q -> Gate.H q)
       @ List.concat
           (List.init 2 (fun _ ->
                List.init 15 (fun q -> Gate.T q)
                @ List.init 14 (fun q -> Gate.Cnot (q, q + 1))))
       @ List.init 6 (fun q -> Gate.H q)))

let run_config ?fuse ~jobs ~shard c =
  Statevector.clear_plan_cache ();
  with_jobs jobs (fun () -> with_shard shard (fun () -> Statevector.run ?fuse c))

(* Planned and gate-by-gate runs, each against its own jobs=1 single-slab
   reference. At shard=auto the 15-qubit state is one slab above
   par_threshold, so the kernels split that slab over the pool. *)
let test_bit_identity_matrix () =
  let c = Lazy.force wide_circuit in
  List.iter
    (fun fuse ->
      let reference = run_config ~fuse ~jobs:1 ~shard:None c in
      List.iter
        (fun jobs ->
          List.iter
            (fun shard ->
              let s = run_config ~fuse ~jobs ~shard c in
              Alcotest.(check bool)
                (Printf.sprintf "bit-identical at fuse=%b jobs=%d shard=%s" fuse
                   jobs
                   (match shard with None -> "auto" | Some b -> string_of_int b))
                true
                (bit_identical reference s))
            [ None; Some 8; Some 11; Some 14 ])
        [ 1; 2; 4 ])
    [ true; false ]

let test_sampler_across_configs () =
  let c = Lazy.force wide_circuit in
  let reference = run_config ~jobs:1 ~shard:None c in
  let smp_ref = Statevector.sampler reference in
  List.iter
    (fun (jobs, shard) ->
      let s = run_config ~jobs ~shard c in
      let smp = with_jobs jobs (fun () -> Statevector.sampler s) in
      for seed = 0 to 20 do
        Alcotest.(check int) "sampler draw identical"
          (Statevector.sample_with smp_ref (Helpers.rng seed))
          (Statevector.sample_with smp (Helpers.rng seed))
      done;
      (* slab-ordered reductions are bit-identical too *)
      Alcotest.(check bool) "norm2 identical" true
        (Statevector.norm2 reference = Statevector.norm2 s);
      Alcotest.(check bool) "prob_of_qubit identical" true
        (Statevector.prob_of_qubit reference 7 = Statevector.prob_of_qubit s 7))
    [ (1, Some 8); (2, Some 11); (4, Some 8); (4, None) ]

let counter_totals_for ~jobs ~shard c =
  let m = Obs.Memory.create () in
  Obs.reset ();
  Obs.set_sink (Some (Obs.Memory.sink m));
  Fun.protect
    ~finally:(fun () -> Obs.set_sink None)
    (fun () -> ignore (run_config ~jobs ~shard c));
  Obs.Summary.counter_totals (Obs.Memory.events m)

let test_obs_totals_across_configs () =
  let c = Lazy.force wide_circuit in
  (* across jobs at a fixed shard setting: every counter total matches,
     including the sv.shard.* ones *)
  let t1 = counter_totals_for ~jobs:1 ~shard:(Some 11) c in
  let t4 = counter_totals_for ~jobs:4 ~shard:(Some 11) c in
  Alcotest.(check (list (pair string int)))
    "telemetry totals identical across --jobs" t1 t4;
  Alcotest.(check bool) "slabs counted" true
    (match List.assoc_opt "sv.shard.slabs" t1 with
    | Some n -> n = 16 (* 2^(15-11) *)
    | None -> false);
  Alcotest.(check bool) "local blocks counted" true
    (List.assoc_opt "sv.shard.local_blocks" t1 <> None);
  (* across shard settings only the shard-layout counters may differ *)
  let strip =
    List.filter (fun (k, _) -> not (Helpers.contains ~needle:"sv.shard." k))
  in
  let tflat = counter_totals_for ~jobs:2 ~shard:None c in
  Alcotest.(check (list (pair string int)))
    "non-shard totals identical across shard-bits" (strip tflat) (strip t4)

(* --- per-gate kernels against the per-index reference --- *)

(* A gate of any kind on [n] qubits, its qubits distinct: MCX with 0-4
   controls, MCZ on 0-4 qubits (an empty MCZ flips every sign), and
   the kinds that need more qubits than [n] left out. *)
let any_gate_gen n =
  let open QCheck2.Gen in
  let* qs = shuffle_l (List.init n Fun.id) in
  let* angle = float_range (-3.14) 3.14 in
  let* k = int_bound 4 in
  let a = List.hd qs and b = List.nth qs (min 1 (n - 1)) and c = List.nth qs (min 2 (n - 1)) in
  let first m = List.filteri (fun i _ -> i < m) qs in
  oneofl
    ([ Gate.X a; Gate.Y a; Gate.Z a; Gate.H a; Gate.S a; Gate.Sdg a; Gate.T a; Gate.Tdg a;
       Gate.Rz (angle, a);
       Gate.Mcx (List.tl (first (min (k + 1) n)), a);
       Gate.Mcz (first (min k n)) ]
    @ (if n >= 2 then [ Gate.Cnot (a, b); Gate.Cz (a, b); Gate.Swap (a, b) ] else [])
    @ if n >= 3 then [ Gate.Ccx (a, b, c); Gate.Ccz (a, b, c) ] else [])

(* 1-16 qubits, half of them past par_threshold (2^14 amplitudes), so
   pools of 2 and 4 split one slab's representatives or many slabs *)
let kernel_case_gen =
  let open QCheck2.Gen in
  let* n = oneof [ int_range 1 14; int_range 15 16 ] in
  let* g = any_gate_gen n in
  let* shard = oneofl [ None; Some 2; Some 3 ] in
  let* jobs = oneofl [ 1; 2; 4 ] in
  let* seed = int_bound 1_000_000 in
  return (n, g, shard, jobs, seed)

let print_kernel_case (n, g, shard, jobs, seed) =
  Printf.sprintf "%d qubits, %s, shard bits %s, jobs %d, seed %d" n (Fmt.to_to_string Gate.pp g)
    (match shard with Some b -> string_of_int b | None -> "auto")
    jobs seed

(* [Statevector.apply] on a random state equals the per-index reference
   on a flat copy, bit for bit. *)
let kernel_matches_reference (n, g, shard, jobs, seed) =
  let st = Helpers.rng seed in
  let size = 1 lsl n in
  let re = Array.init size (fun _ -> Random.State.float st 2. -. 1.) in
  let im = Array.init size (fun _ -> Random.State.float st 2. -. 1.) in
  let s = with_shard shard (fun () -> Statevector.init n) in
  for x = 0 to size - 1 do
    Statevector.set_re s x re.(x);
    Statevector.set_im s x im.(x)
  done;
  with_jobs jobs (fun () -> Statevector.apply s g);
  Helpers.reference_apply re im g;
  let bits = Int64.bits_of_float in
  let ok = ref true in
  for x = 0 to size - 1 do
    if bits (Statevector.get_re s x) <> bits re.(x) || bits (Statevector.get_im s x) <> bits im.(x)
    then ok := false
  done;
  !ok

let prop_kernels_reference =
  Helpers.prop "per-gate kernels = per-index reference, bit for bit" ~count:400
    ~print:print_kernel_case kernel_case_gen kernel_matches_reference

(* --- a planned run starts at its first Hadamard layer --- *)

let same_bits s1 s2 =
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  Statevector.size s1 = Statevector.size s2
  && (let ok = ref true in
      for x = 0 to Statevector.size s1 - 1 do
        let a = Statevector.amplitude s1 x and b = Statevector.amplitude s2 x in
        if not (same a.re b.re && same a.im b.im) then ok := false
      done;
      !ok)

(* A random Clifford+T gate on [n] qubits. *)
let random_gate st n =
  let q = Random.State.int st n in
  let q2 = (q + 1 + Random.State.int st (n - 1)) mod n in
  match Random.State.int st 9 with
  | 0 -> Gate.H q
  | 1 -> Gate.T q
  | 2 -> Gate.Tdg q
  | 3 -> Gate.S q
  | 4 -> Gate.X q
  | 5 -> Gate.Cnot (q, q2)
  | 6 -> Gate.Cz (q, q2)
  | 7 -> Gate.Rz (Random.State.float st 6.28 -. 3.14, q)
  | _ -> if q <> 0 && q2 <> 0 then Gate.Ccx (0, q, q2) else Gate.Z q

(* Random circuits of 10-15 qubits (planned by [run]) opening with H
   on a random subset, in the shapes that decide how many leading
   kernels the fused start takes: a whole layer (one kernel), a whole
   layer split across two kernels (X; X between the halves ends the
   first block, the identity drops out), a partial layer, a layer with
   H repeated on a qubit, a diagonal run that the H block after it
   carries as a pre-sweep (at the start, or between the two halves of
   a layer), and no leading H; then a random tail. *)
let h_led_circuit st =
  let n = 10 + Random.State.int st 6 in
  let hs qs = List.map (fun q -> Gate.H q) qs in
  let all = List.init n Fun.id in
  let subset () = List.filter (fun _ -> Random.State.bool st) all in
  let split = 1 + Random.State.int st (n - 1) in
  let lo = List.filter (fun q -> q < split) all
  and hi = List.filter (fun q -> q >= split) all in
  (* three diagonal gates: a sweep; the Rz puts a phase on |0…0⟩ *)
  let diag_run qs =
    let q () = List.nth qs (Random.State.int st (List.length qs)) in
    [ Gate.Rz (Random.State.float st 3., q ()); Gate.T (q ()); Gate.T (q ()) ]
  in
  let head =
    match Random.State.int st 7 with
    | 0 -> hs all
    | 1 -> hs lo @ [ Gate.X 0; Gate.X 0 ] @ hs hi
    | 2 -> hs (subset ())
    | 3 -> hs all @ [ Gate.H (Random.State.int st n) ] @ hs (subset ())
    | 4 -> diag_run all @ hs all
    | 5 -> hs lo @ diag_run lo @ hs hi
    | _ -> random_gate st n :: hs all
  in
  let tail = List.init (Random.State.int st 30) (fun _ -> random_gate st n) in
  Circuit.of_gates n (head @ tail)

(* [Statevector.run] (the fused start, then replay) equals [init]
   followed by [Plan.execute] of the whole plan, bit for bit, on one
   slab and at shard bits 2, 3 and 10, at jobs 1, 2 and 4. *)
let run_is_replay c =
  List.for_all
    (fun (jobs, shard) ->
      with_jobs jobs (fun () ->
          with_shard shard (fun () -> same_bits (run_planned c) (Statevector.run c))))
    (List.concat_map
       (fun jobs -> List.map (fun sb -> (jobs, sb)) [ None; Some 2; Some 3; Some 10 ])
       [ 1; 2; 4 ])

let prop_run_is_replay =
  Helpers.prop "run = init + Plan.execute, bit for bit" ~count:40
    (seeded_circuit_gen h_led_circuit) run_is_replay

(* How many leading kernels each opening shape folds, on 12 qubits:
   (kernels, qubit mask, Hadamard rounds). *)
let test_fused_start_shapes () =
  let n = 12 in
  let hs qs = List.map (fun q -> Gate.H q) qs in
  let all = List.init n Fun.id and low = List.init 6 Fun.id in
  let high = List.init 6 (fun i -> 6 + i) in
  let full = (1 lsl n) - 1 in
  List.iter
    (fun (name, gates, want) ->
      let c = Circuit.of_gates n (gates @ [ Gate.Cnot (0, 11); Gate.T 11; Gate.H 11 ]) in
      let start, mask, rounds = Statevector.Plan.hadamard_prefix (Statevector.Plan.build c) in
      Alcotest.(check (triple int int int)) name want (start, mask, rounds);
      Alcotest.(check bool) (name ^ ": run = init + Plan.execute") true
        (same_bits (run_planned c) (Statevector.run c)))
    [ ("whole layer", hs all, (1, full, n));
      ("layer split over two kernels", hs low @ [ Gate.X 0; Gate.X 0 ] @ hs high, (2, full, n));
      ("partial layer", hs [ 0; 2; 5 ] @ [ Gate.Cnot (0, 1) ], (1, 0b100101, 3));
      ("H repeated on a qubit", hs all @ hs [ 3; 4 ], (1, full, n));
      ("pre-sweep on the first block", [ Gate.Rz (0.3, 0); Gate.T 1; Gate.T 2 ] @ hs all,
        (0, 0, 0));
      ("pre-sweep on the second block", hs low @ [ Gate.T 0; Gate.T 1; Gate.T 2 ] @ hs high,
        (1, 0b111111, 6));
      ("no leading H", Gate.Cnot (0, 1) :: hs all, (0, 0, 0)) ]

(* 18 qubits: the H layer outgrows one Kronecker block (16 bits), so it
   splits over two kernels, both folded into the allocation (the MCX on
   the top qubit keeps the CNOT chain's block from clustering in
   between). *)
let test_run_is_replay_wide () =
  let c =
    Circuit.of_gates 18
      (List.init 18 (fun q -> Gate.H q)
      @ [ Gate.Mcx ([ 0; 1; 2 ], 17) ]
      @ List.init 17 (fun q -> Gate.Cnot (q, q + 1))
      @ [ Gate.T 3; Gate.H 17; Gate.H 2 ])
  in
  let start, mask, _ = Statevector.Plan.hadamard_prefix (Statevector.Plan.build c) in
  Alcotest.(check (pair int int)) "two kernels, every qubit" (2, (1 lsl 18) - 1) (start, mask);
  List.iter
    (fun (jobs, shard) ->
      Alcotest.(check bool)
        (Printf.sprintf "bit for bit at jobs %d, shard %s" jobs
           (match shard with None -> "auto" | Some b -> string_of_int b))
        true
        (with_jobs jobs (fun () ->
             with_shard shard (fun () -> same_bits (run_planned c) (Statevector.run c)))))
    [ (1, None); (2, Some 10); (4, Some 3) ]

(* --- peephole: reorder preserves the unitary --- *)

let prop_peephole_unitary =
  Helpers.prop "peephole preserves the circuit unitary" ~count:60
    QCheck2.Gen.(
      let* seed = int_bound 1_000_000 in
      Helpers.qcircuit_gen ~diagonals:(seed mod 2 = 0) 4 30)
    (fun c ->
      let n = Circuit.num_qubits c in
      let gates = Circuit.to_array c in
      let reordered = Statevector.Plan.peephole gates in
      Unitary.equal
        (Unitary.of_gates n (Array.to_list gates))
        (Unitary.of_gates n (Array.to_list reordered)))

let test_peephole_widens_runs () =
  (* H layers interleaved with disjoint CNOTs: the peephole defers the
     H's so the classical gates fuse into one monomial block *)
  let c =
    Circuit.of_gates 4
      [ Gate.X 0; Gate.H 2; Gate.Cnot (0, 1); Gate.H 3; Gate.Cnot (1, 0) ]
  in
  let st = Statevector.Plan.stats (Statevector.Plan.build c) in
  Alcotest.(check int) "one monomial block" 1 st.Statevector.Plan.perm;
  Alcotest.(check int) "one fused H block" 1 st.Statevector.Plan.had;
  Alcotest.(check int) "no dense blocks" 0 st.Statevector.Plan.dense;
  Alcotest.(check bool) "replay agrees with unfused" true
    (same_amplitudes (run_planned c) (Statevector.run ~fuse:false c))

(* --- memory guard --- *)

let test_alloc_guard () =
  Unix.putenv "DAUTOQ_SV_MAX_QUBITS" "10";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "DAUTOQ_SV_MAX_QUBITS" "")
    (fun () ->
      (match Statevector.init 10 with
      | s -> Alcotest.(check int) "cap width allocates" 10 (Statevector.num_qubits s)
      | exception _ -> Alcotest.fail "within-cap allocation refused");
      match Statevector.init 11 with
      | exception Statevector.Unsupported msg ->
          Alcotest.(check bool) "token-named message" true
            (Helpers.contains ~needle:"sv.alloc:" msg);
          Alcotest.(check bool) "suggests the stabilizer backend" true
            (Helpers.contains ~needle:"stabilizer" msg)
      | _ -> Alcotest.fail "over-cap allocation accepted")

(* --- LRU plan cache --- *)

let cache_circuit tag =
  (* distinct structural keys at planner width (>= fuse_min_qubits) *)
  Circuit.of_gates 10
    (List.init 10 (fun q -> Gate.H q)
    @ List.init tag (fun i -> Gate.T (i mod 10))
    @ List.init 9 (fun q -> Gate.Cnot (q, q + 1)))

let test_lru_eviction () =
  Unix.putenv "DAUTOQ_PLAN_CACHE" "2";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "DAUTOQ_PLAN_CACHE" "")
    (fun () ->
      let m = Obs.Memory.create () in
      Obs.reset ();
      Obs.set_sink (Some (Obs.Memory.sink m));
      Fun.protect
        ~finally:(fun () -> Obs.set_sink None)
        (fun () ->
          Statevector.clear_plan_cache ();
          let run tag = ignore (Statevector.run (cache_circuit tag)) in
          run 1;
          run 2;
          run 1 (* hit: refreshes 1's recency *);
          run 3 (* evicts 2, the least recently used *);
          run 1 (* still cached: hit, no rebuild *);
          run 2 (* rebuilt: was evicted *));
      let totals = Obs.Summary.counter_totals (Obs.Memory.events m) in
      Alcotest.(check (option int)) "replays: the two hits on circuit 1"
        (Some 2)
        (List.assoc_opt "sv.plan.replay" totals);
      Alcotest.(check bool) "evictions counted" true
        (match List.assoc_opt "sv.plan.evict" totals with
        | Some n -> n >= 2 (* circuit 2 evicted, then 1 or 3 for 2's rebuild *)
        | None -> false);
      let size, cap, evictions = Statevector.plan_cache_stats () in
      Alcotest.(check int) "capacity from env" 2 cap;
      Alcotest.(check bool) "size within capacity" true (size <= 2);
      Alcotest.(check bool) "stats report evictions" true (evictions >= 2);
      Statevector.clear_plan_cache ();
      let size', _, evictions' = Statevector.plan_cache_stats () in
      Alcotest.(check int) "clear empties the cache" 0 size';
      Alcotest.(check int) "clear resets evictions" 0 evictions')

let () =
  Alcotest.run "shard"
    [ ( "shard-equivalence",
        [ prop_shard_diag; prop_shard_perm; prop_shard_general ] );
      ( "bit-identity",
        [ Alcotest.test_case "amplitudes across jobs x shard-bits" `Quick
            test_bit_identity_matrix;
          Alcotest.test_case "sampler draws and reductions" `Quick
            test_sampler_across_configs;
          Alcotest.test_case "telemetry totals" `Quick
            test_obs_totals_across_configs ] );
      ("kernels", [ prop_kernels_reference ]);
      ( "fused-start",
        [ Alcotest.test_case "kernels folded per opening" `Quick test_fused_start_shapes;
          prop_run_is_replay;
          Alcotest.test_case "18-qubit layer over two kernels" `Quick
            test_run_is_replay_wide ] );
      ( "peephole",
        [ prop_peephole_unitary;
          Alcotest.test_case "widens monomial runs" `Quick
            test_peephole_widens_runs ] );
      ( "guards",
        [ Alcotest.test_case "allocation cap" `Quick test_alloc_guard;
          Alcotest.test_case "LRU plan cache" `Quick test_lru_eviction ] ) ]
