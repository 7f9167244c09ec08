(* The workload corpus: entry grammar, the QASM interchange contract
   (every family emits OpenQASM that re-imports equivalent), snapshot
   persistence, and the regression-diff semantics `corpus diff` gates on. *)

let no_timings = { Corpus.default_config with Corpus.timings = false }

(* ---------------- entry grammar ---------------- *)

let test_parse_entries () =
  let e = Corpus.parse_entry "grover:5:3" in
  Alcotest.(check string) "name round-trips" "grover:5:3" (Corpus.entry_name e);
  Alcotest.(check string) "seed defaults to 0" "ghz:7"
    (Corpus.entry_name (Corpus.parse_entry "ghz:7"));
  List.iter
    (fun bad ->
      match Corpus.parse_entry bad with
      | _ -> Alcotest.failf "accepted bad spec %s" bad
      | exception Corpus.Bad_spec _ -> ())
    [ "nope:4"; "ghz"; "ghz:x"; "ghz:4:x"; "" ]

let test_manifests_parse () =
  List.iter
    (fun e -> ignore (Corpus.parse_entry (Corpus.entry_name e)))
    (Corpus.default_manifest @ Corpus.smoke_manifest)

(* ---------------- QASM interchange ---------------- *)

(* Every family's lowered circuit survives the OpenQASM round-trip
   equivalent — the property that makes the corpus meaningful to
   external toolchains. Sizes stay small enough for the exact or
   subspace checker to be decisive. *)
let qasm_roundtrip_gen =
  QCheck.make ~print:Corpus.entry_name
    QCheck.Gen.(
      let* family, lo, hi =
        oneofl
          [ ("dj", 2, 5); ("bv", 2, 5); ("ghz", 2, 6); ("qft", 2, 5);
            ("qpe", 2, 4); ("grover", 3, 4); ("adder", 2, 2); ("cmp", 2, 3);
            ("hwb", 3, 4); ("cliffordt", 2, 6) ]
      in
      let* size = int_range lo hi in
      let* seed = int_range 0 99 in
      return (Corpus.parse_entry (Printf.sprintf "%s:%d:%d" family size seed)))

let qasm_roundtrip =
  QCheck.Test.make ~name:"every family emits re-importable equivalent QASM"
    ~count:30 qasm_roundtrip_gen (fun e ->
      let raw, _ = Corpus.build e in
      let lowered, _ = Qc.Clifford_t.compile raw in
      let reimported = Qc.Qasm.parse (Qc.Qasm.to_string ~measure:false lowered) in
      match Qc.Equiv.check lowered reimported with
      | Qc.Equiv.Equivalent | Qc.Equiv.Probably_equivalent _ -> true
      | Qc.Equiv.Not_equivalent ->
          QCheck.Test.fail_reportf "%s: re-imported QASM not equivalent"
            (Corpus.entry_name e))

let test_to_qasm_parses () =
  List.iter
    (fun e ->
      let c = Qc.Qasm.parse (Corpus.to_qasm e) in
      Alcotest.(check bool)
        (Corpus.entry_name e ^ " emits nonempty QASM")
        true
        (Qc.Circuit.gates c <> []))
    Corpus.smoke_manifest

(* ---------------- running entries ---------------- *)

let test_run_entry_metrics () =
  let r, optimized =
    Corpus.run_entry ~config:no_timings (Corpus.parse_entry "grover:3:2")
  in
  Alcotest.(check int) "qubits match optimized circuit"
    (Qc.Circuit.num_qubits optimized) r.Corpus.qubits;
  Alcotest.(check int) "1q + 2q = gates" r.Corpus.gates
    (r.Corpus.gates_1q + r.Corpus.gates_2q);
  Alcotest.(check bool) "equivalence gate passed" true
    (r.Corpus.equiv = "equivalent" || r.Corpus.equiv = "equivalent-randomized");
  (match r.Corpus.fidelity with
  | Some f -> Alcotest.(check (float 1e-6)) "fidelity 1 from |0...0>" 1. f
  | None -> Alcotest.fail "small entry skipped the fidelity check");
  Alcotest.(check (float 0.)) "timings suppressed" 0. r.Corpus.compile_us

let test_run_deterministic () =
  let run () = Corpus.run ~config:no_timings Corpus.smoke_manifest in
  if run () <> run () then
    Alcotest.fail "two in-process corpus runs disagree"

(* the statevector slab layout and the worker count must never leak
   into corpus records: the default layout vs --shard-bits 3 (every
   multi-qubit kernel crosses slabs) and --jobs 1 vs 4 produce
   byte-identical snapshots on the smoke slice *)
let test_run_plan_jobs_invariant () =
  let snap () =
    Obs.Json.to_string
      (Corpus.snapshot_to_json
         (Corpus.snapshot (Corpus.run ~config:no_timings Corpus.smoke_manifest)))
  in
  let with_setup ~shard ~jobs f =
    Qc.Statevector.set_shard_bits shard;
    Par.set_default_jobs jobs;
    Fun.protect
      ~finally:(fun () ->
        Qc.Statevector.set_shard_bits None;
        Par.set_default_jobs 1)
      f
  in
  let planned_j1 = with_setup ~shard:None ~jobs:1 snap in
  let planned_j4 = with_setup ~shard:None ~jobs:4 snap in
  let sharded_j1 = with_setup ~shard:(Some 3) ~jobs:1 snap in
  Alcotest.(check string) "snapshot invariant under --jobs" planned_j1 planned_j4;
  Alcotest.(check string) "snapshot invariant under --shard-bits 3" planned_j1
    sharded_j1

(* ---------------- snapshot persistence ---------------- *)

let test_snapshot_roundtrip () =
  let s =
    Corpus.snapshot
      (Corpus.run ~config:no_timings
         [ Corpus.parse_entry "dj:4"; Corpus.parse_entry "cliffordt:4:1" ])
  in
  let back = Corpus.snapshot_of_json (Corpus.snapshot_to_json s) in
  if back <> s then Alcotest.fail "snapshot JSON round-trip changed records";
  (* the bench report wraps the snapshot as a "corpus" member *)
  let wrapped =
    Obs.Json.Obj [ ("pr", Obs.Json.Num 7.); ("corpus", Corpus.snapshot_to_json s) ]
  in
  if Corpus.snapshot_of_json wrapped <> s then
    Alcotest.fail "snapshot not found under the corpus member"

let test_snapshot_rejects_garbage () =
  List.iter
    (fun j ->
      match Corpus.snapshot_of_json (Obs.Json.parse j) with
      | _ -> Alcotest.failf "accepted %s" j
      | exception Corpus.Bad_snapshot _ -> ())
    [ "{}"; "{\"version\":1}"; "{\"version\":99,\"entries\":[]}";
      "{\"version\":1,\"entries\":[{\"name\":\"x\"}]}" ]

(* ---------------- diff semantics ---------------- *)

let record ?(name = "dj:4") ?(t_count = 10) ?(compile_us = 100.)
    ?(fidelity = Some 1.) ?(equiv = "equivalent") () =
  { Corpus.name; family = "dj"; size = 4; seed = 0; qubits = 4; gates = 20;
    gates_1q = 12; gates_2q = 8; t_count; depth = 15; t_depth = 4; ancillae = 0;
    compile_us; cache_hits = 1; cache_misses = 2; equiv; fidelity; tvd = None }

let snap rs = Corpus.snapshot rs

let regressions report = report.Corpus.Diff.regressions

let test_diff_identical () =
  let s = snap [ record () ] in
  let r = Corpus.Diff.diff s s in
  Alcotest.(check bool) "no regressions" false (Corpus.Diff.has_regressions r);
  Alcotest.(check int) "one common entry" 1 (List.length r.Corpus.Diff.common)

let test_diff_t_count_regression () =
  let r =
    Corpus.Diff.diff (snap [ record () ]) (snap [ record ~t_count:11 () ])
  in
  Alcotest.(check (list (pair string string)))
    "t_count regressed"
    [ ("dj:4", "t_count") ]
    (regressions r);
  (* improvements never regress *)
  let better =
    Corpus.Diff.diff (snap [ record () ]) (snap [ record ~t_count:9 () ])
  in
  Alcotest.(check bool) "improvement ok" false (Corpus.Diff.has_regressions better)

let test_diff_runtime_threshold () =
  (* compile_us default threshold is 0.5: +40% passes, +60% trips *)
  let old_s = snap [ record ~compile_us:100. () ] in
  let ok = Corpus.Diff.diff old_s (snap [ record ~compile_us:140. () ]) in
  Alcotest.(check bool) "+40%% under threshold" false (Corpus.Diff.has_regressions ok);
  let slow = Corpus.Diff.diff old_s (snap [ record ~compile_us:160. () ]) in
  Alcotest.(check (list (pair string string)))
    "+60%% trips"
    [ ("dj:4", "compile_us") ]
    (regressions slow)

let test_diff_fidelity_downward () =
  (* fidelity regresses downward (threshold 0.01) *)
  let old_s = snap [ record ~fidelity:(Some 1.) () ] in
  let drop = Corpus.Diff.diff old_s (snap [ record ~fidelity:(Some 0.95) () ]) in
  Alcotest.(check (list (pair string string)))
    "drop regresses"
    [ ("dj:4", "fidelity") ]
    (regressions drop);
  let rise =
    Corpus.Diff.diff (snap [ record ~fidelity:(Some 0.95) () ]) old_s
  in
  Alcotest.(check bool) "rise is fine" false (Corpus.Diff.has_regressions rise)

let test_diff_equiv_flip () =
  let r =
    Corpus.Diff.diff
      (snap [ record () ])
      (snap [ record ~equiv:"NOT-equivalent" () ])
  in
  Alcotest.(check (list (pair string string)))
    "equiv flip always regresses"
    [ ("dj:4", "equiv") ]
    (regressions r)

let test_diff_added_removed () =
  let r =
    Corpus.Diff.diff
      (snap [ record (); record ~name:"old-only" () ])
      (snap [ record (); record ~name:"new-only" () ])
  in
  Alcotest.(check (list string)) "added" [ "new-only" ] r.Corpus.Diff.added;
  Alcotest.(check (list string)) "removed" [ "old-only" ] r.Corpus.Diff.removed;
  Alcotest.(check bool) "membership churn is not a regression" false
    (Corpus.Diff.has_regressions r)

let test_diff_custom_thresholds () =
  let thresholds = Corpus.Diff.parse_thresholds "t_count=0.5" in
  let r =
    Corpus.Diff.diff ~thresholds
      (snap [ record ~t_count:10 () ])
      (snap [ record ~t_count:14 () ])
  in
  Alcotest.(check bool) "+40%% under a 0.5 threshold" false
    (Corpus.Diff.has_regressions r);
  List.iter
    (fun bad ->
      match Corpus.Diff.parse_thresholds bad with
      | _ -> Alcotest.failf "accepted %s" bad
      | exception Corpus.Diff.Bad_threshold _ -> ())
    [ "martian=0.1"; "t_count=x"; "t_count=-1"; "t_count" ]

let () =
  Alcotest.run "corpus"
    [ ( "grammar",
        [ Alcotest.test_case "parse entries" `Quick test_parse_entries;
          Alcotest.test_case "manifests parse" `Quick test_manifests_parse ] );
      ( "qasm",
        [ QCheck_alcotest.to_alcotest qasm_roundtrip;
          Alcotest.test_case "to_qasm parses" `Quick test_to_qasm_parses ] );
      ( "run",
        [ Alcotest.test_case "entry metrics" `Quick test_run_entry_metrics;
          Alcotest.test_case "deterministic" `Quick test_run_deterministic;
          Alcotest.test_case "plan/jobs invariant" `Quick
            test_run_plan_jobs_invariant ] );
      ( "snapshot",
        [ Alcotest.test_case "round-trip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_snapshot_rejects_garbage ] );
      ( "diff",
        [ Alcotest.test_case "identical" `Quick test_diff_identical;
          Alcotest.test_case "t_count regression" `Quick test_diff_t_count_regression;
          Alcotest.test_case "runtime threshold" `Quick test_diff_runtime_threshold;
          Alcotest.test_case "fidelity downward" `Quick test_diff_fidelity_downward;
          Alcotest.test_case "equiv flip" `Quick test_diff_equiv_flip;
          Alcotest.test_case "added/removed" `Quick test_diff_added_removed;
          Alcotest.test_case "custom thresholds" `Quick test_diff_custom_thresholds ] ) ]
