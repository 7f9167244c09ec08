(* Kernel-plan smoke test, wired into the default test alias.

   Runs the qasm_tool `sim` subcommand on a 12-qubit circuit that is wide
   enough to engage the plan layer (fuse_min_qubits = 10) and ends in the
   hidden shift's X^s·CZ·X^s shape between two H layers, three ways:
   on one slab at --jobs 1, on one slab at --jobs 4, and on 8-amplitude
   slabs (--shard-bits 3, so the cross-slab kernels run). Guards:

   1. all three runs print byte-identical stdout — neither the slab
      layout nor the worker count changes simulation results, not even
      in the last printed digit;
   2. each run's stdout equals the pinned output in plan_smoke.expected,
      so a kernel change that moves a printed digit on every leg alike
      still fails (regenerate the file only for an intended change of
      results);
   3. the planned run's trace records a nonzero sv.plan.blocks counter —
      the plan layer actually formed fused blocks (the counter is only
      emitted when blocks > 0, so presence is the check). *)

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("plan smoke: " ^ m); exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let qasm =
  let b = Buffer.create 1024 in
  Buffer.add_string b "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[12];\n";
  for q = 0 to 11 do
    Buffer.add_string b (Printf.sprintf "h q[%d];\n" q)
  done;
  for _layer = 1 to 3 do
    for q = 0 to 11 do
      Buffer.add_string b (Printf.sprintf "t q[%d];\n" q)
    done;
    for q = 0 to 10 do
      Buffer.add_string b (Printf.sprintf "cx q[%d],q[%d];\n" q (q + 1))
    done
  done;
  for q = 0 to 11 do
    Buffer.add_string b (Printf.sprintf "h q[%d];\n" q)
  done;
  (* the hidden shift's compute/uncompute shape: X^s, CZ pairs, X^s,
     then an H layer — the plan pushes the X's through the CZ run and
     folds the resulting sweep into that layer's (cross-slab) pass *)
  let shift () =
    List.iter (fun q -> Buffer.add_string b (Printf.sprintf "x q[%d];\n" q)) [ 0; 3; 4; 7; 10 ]
  in
  shift ();
  for p = 0 to 5 do
    Buffer.add_string b (Printf.sprintf "cz q[%d],q[%d];\n" (2 * p) ((2 * p) + 1))
  done;
  shift ();
  for q = 0 to 11 do
    Buffer.add_string b (Printf.sprintf "h q[%d];\n" q)
  done;
  Buffer.contents b

let run cli file extra_args ~out =
  let argv = Array.of_list ((cli :: [ "sim"; file ]) @ extra_args) in
  let out_fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid = Unix.create_process cli argv Unix.stdin out_fd Unix.stderr in
  let _, status = Unix.waitpid [] pid in
  Unix.close out_fd;
  match status with
  | Unix.WEXITED 0 -> ()
  | _ -> die "qasm_tool sim %s exited abnormally" (String.concat " " extra_args)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let () =
  let cli, expected =
    match Array.to_list Sys.argv with
    | [ _; cli; expected ] -> (cli, read_file expected)
    | _ -> die "usage: plan_smoke <qasm_tool.exe> <plan_smoke.expected>"
  in
  let dir = Filename.temp_file "dautoq_plan" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let tmp suffix = Filename.concat dir suffix in
  let qasm_file = tmp "circuit.qasm" in
  let oc = open_out qasm_file in
  output_string oc qasm;
  close_out oc;
  run cli qasm_file
    [ "--jobs"; "1"; "--trace-out"; tmp "planned.trace" ]
    ~out:(tmp "planned_j1.out");
  run cli qasm_file [ "--jobs"; "4" ] ~out:(tmp "planned_j4.out");
  run cli qasm_file [ "--jobs"; "1"; "--shard-bits"; "3" ]
    ~out:(tmp "sharded.out");
  let j1 = read_file (tmp "planned_j1.out") in
  let j4 = read_file (tmp "planned_j4.out") in
  let sharded = read_file (tmp "sharded.out") in
  if String.length j1 = 0 then die "planned run printed no probabilities";
  if j1 <> j4 then die "planned output differs between --jobs 1 and --jobs 4";
  if j1 <> sharded then die "one-slab and --shard-bits 3 outputs differ";
  List.iter
    (fun (leg, out) ->
      if out <> expected then die "%s output differs from plan_smoke.expected" leg)
    [ ("--jobs 1", j1); ("--jobs 4", j4); ("--shard-bits 3", sharded) ];
  let trace = read_file (tmp "planned.trace") in
  if not (contains trace "sv.plan.blocks") then
    die "trace records no sv.plan.blocks — the plan layer formed no blocks";
  Printf.printf
    "plan smoke: OK (one slab = 8-amplitude slabs = pinned output, jobs-invariant, \
     blocks formed)\n";
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ())
