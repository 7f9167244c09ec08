(** Unified execution targets — the interchangeable "backends" of the
    paper's Sec. VI ProjectQ discussion, behind one signature.

    A backend consumes a compiled Clifford+T circuit and produces an
    {!outcome}: a measured basis state (simulators), an outcome histogram
    (the noisy Monte-Carlo backend), or exported text (QASM, Q#, ASCII
    drawing). The flow, the shell ([run <target>]) and the CLIs
    ([--target]) all hand circuits to backends uniformly; adding a target
    means adding one value of type {!t}, not editing the flow. How a
    simulator target runs a circuit (sparse or dense, tableau) is
    {!Sim}'s choice, not the backend's. *)

exception Unsupported of string
(** The circuit cannot run on this backend (too wide, non-Clifford, …) or
    the backend spec is malformed; the message names the offender. *)

let failf fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

(** Result-validation verdict of a resilient device job (the device
    layer feeds it back through {!outcome}): [Validated] — all requested
    shots delivered by the primary backend with a consistent histogram;
    [Degraded] — usable but imperfect (short delivery, fallback backend,
    distribution drift), with the reasons; [Failed] — nothing usable. *)
type verdict = Validated | Degraded of string | Failed of string

let verdict_to_string = function
  | Validated -> "validated"
  | Degraded why -> "degraded: " ^ why
  | Failed why -> "failed: " ^ why

type outcome =
  | Measured of { outcome : int; deterministic : bool }
      (** a single computational-basis readout of every qubit *)
  | Histogram of (int * float) list
      (** empirical outcome frequencies, most frequent first *)
  | Job of {
      histogram : (int * float) list; (* frequencies of delivered shots *)
      delivered : int;
      requested : int;
      verdict : verdict;
    }  (** a resilient device job: salvaged histogram plus accounting *)
  | Exported of string  (** rendered text: QASM, Q# source, drawing *)

type t = {
  name : string;
  doc : string;
  run : Circuit.t -> outcome;
}

let pp_outcome ppf = function
  | Measured { outcome; deterministic } ->
      Fmt.pf ppf "measured %d (%s)" outcome
        (if deterministic then "deterministic" else "one random branch")
  | Histogram freqs ->
      Fmt.pf ppf "@[<v>%a@]"
        Fmt.(
          list ~sep:cut (fun ppf (x, f) -> Fmt.pf ppf "%6d  %.4f" x f))
        freqs
  | Job { histogram; delivered; requested; verdict } ->
      Fmt.pf ppf "@[<v>%adelivered %d/%d shots, %s@]"
        Fmt.(list ~sep:nop (fun ppf (x, f) -> Fmt.pf ppf "%6d  %.4f@ " x f))
        histogram delivered requested (verdict_to_string verdict)
  | Exported text -> Fmt.string ppf text

let outcome_to_string o = Fmt.str "%a" pp_outcome o

(* --- the built-in targets --- *)

(* Every backend execution is a telemetry span named after the family. *)
let make ~name ~doc run =
  { name; doc; run = (fun c -> Obs.with_span ("qc.backend." ^ name) (fun () -> run c)) }

(* Noiseless simulation on {!Sim.state}, sparse first. The outcome is
   the most likely basis state (smallest index on ties), deterministic
   when its probability is 1 within 1e-6. The span's [support] attribute
   is the number of nonzero amplitudes of a sparse run, or "dense". *)
let statevector =
  make ~name:"statevector"
    ~doc:
      "noiseless simulation, sparse while few amplitudes are nonzero; reports the most \
       likely outcome"
    (fun c ->
      (* refusing here, before the statevector's own allocation guard
         (DAUTOQ_SV_MAX_QUBITS), keeps the error a Backend.Unsupported
         like every other target mismatch *)
      let n = Circuit.num_qubits c in
      let cap = Statevector.max_qubits () in
      if n > cap then failf "statevector: %d qubits exceed the dense cap of %d" n cap;
      let st = Sim.state c in
      if Obs.enabled () then begin
        let support =
          match st with Sim.Sparse s -> Obs.Int (Sparse.support s) | Sim.Dense _ -> Obs.Str "dense"
        in
        Obs.add_attrs [ ("support", support) ]
      end;
      let outcome, deterministic = Sim.readout st in
      Measured { outcome; deterministic })

(* The CHP tableau ({!Sim.tableau}); a random branch reads 0. *)
let stabilizer =
  make ~name:"stabilizer"
    ~doc:"CHP tableau simulation; Clifford circuits only, polynomial in width"
    (fun c ->
      match Sim.tableau c with
      | Some (outcome, deterministic) -> Measured { outcome; deterministic }
      | None -> failf "stabilizer: circuit contains non-Clifford gates")

(* The backend is named by its family ("noisy", matching the catalog and
   error messages); the instance parameters live in [doc]. *)
let noisy ?(seed = 0xC0FFEE) ?(shots = 1024) ?jobs params =
  make ~name:"noisy"
    ~doc:
      (Printf.sprintf
         "Monte-Carlo shots with depolarizing + readout noise (IBM-QX-style); \
          shots=%d, seed=%d%s"
         shots seed
         (match jobs with None -> "" | Some j -> Printf.sprintf ", jobs=%d" j))
    (fun c ->
      (* Clifford circuits run as Pauli frames at any width whose outcome
         fits an int; the statevector cap binds only the others *)
      if Circuit.num_qubits c > Noise.max_qubits then
        failf "noisy: %d qubits exceed the %d-bit outcome limit" (Circuit.num_qubits c)
          Noise.max_qubits;
      let counts = Noise.run_shots ~seed ?jobs params c ~shots in
      let freqs = ref [] in
      Noise.iter_counts
        (fun x k -> freqs := (x, Float.of_int k /. Float.of_int shots) :: !freqs)
        counts;
      Histogram (List.sort (fun (_, a) (_, b) -> Float.compare b a) !freqs))

let qasm =
  make ~name:"qasm" ~doc:"OpenQASM 2.0 export" (fun c ->
      Exported (Qasm.to_string ~measure:false c))

let qsharp ?(operation = "GeneratedOracle") () =
  make ~name:"qsharp" ~doc:"Q# operation source export" (fun c ->
      Exported (Qsharp_gen.operation ~name:operation c))

let draw =
  make ~name:"draw" ~doc:"ASCII circuit rendering" (fun c ->
      Exported (Draw.to_string c))

(* --- spec parsing: "name" or "name:arg[,arg…]" --- *)

let known = [ "statevector"; "stabilizer"; "noisy"; "qasm"; "qsharp"; "draw" ]

(** [catalog ()] lists [(family-name, doc)] pairs for help screens. Every
    instance reports its family name; instance parameters (e.g. the noisy
    backend's shot count) appear in [doc]. *)
let catalog () =
  List.map
    (fun b -> (b.name, b.doc))
    [ statevector; stabilizer; noisy Noise.ibm_qx2017; qasm; qsharp (); draw ]

let int_param name value =
  match int_of_string_opt value with
  | Some i when i > 0 -> i
  | _ -> failf "%s: expected a positive integer, got %s" name value

(** [split_spec spec] splits ["name:arg"] into [(name, Some arg)] and
    ["name"] into [(name, None)]. *)
let split_spec spec =
  match String.index_opt spec ':' with
  | None -> (String.trim spec, None)
  | Some i ->
      ( String.trim (String.sub spec 0 i),
        Some (String.sub spec (i + 1) (String.length spec - i - 1)) )

(** [noisy_args arg] reads the argument of a [noisy[:shots=N,seed=N,jobs=N]]
    spec: [(shots, seed, jobs)], by default 1024 shots and seed
    0xC0FFEE. Raises {!Unsupported} naming a bad parameter. *)
let noisy_args arg =
  let shots = ref 1024 and seed = ref 0xC0FFEE and jobs = ref None in
  Option.iter
    (fun a ->
      List.iter
        (fun kv ->
          match String.split_on_char '=' kv with
          | [ "shots"; v ] -> shots := int_param "noisy:shots" v
          | [ "seed"; v ] -> seed := int_param "noisy:seed" v
          | [ "jobs"; v ] -> jobs := Some (int_param "noisy:jobs" v)
          | _ -> failf "noisy: unknown parameter %s (expected shots=N, seed=N or jobs=N)" kv)
        (String.split_on_char ',' a))
    arg;
  (!shots, !seed, !jobs)

(** [of_spec spec] resolves a backend spec string:
    [statevector | stabilizer | noisy[:shots=N[,seed=N][,jobs=N]] | qasm |
     qsharp[:OperationName] | draw]. Raises {!Unsupported} naming the
    offending token. *)
let of_spec spec =
  let name, arg = split_spec spec in
  let no_arg () =
    match arg with
    | None -> ()
    | Some a -> failf "backend %s takes no argument (got %s)" name a
  in
  match name with
  | "statevector" | "sv" ->
      no_arg ();
      statevector
  | "stabilizer" | "stabsim" | "chp" ->
      no_arg ();
      stabilizer
  | "noisy" ->
      let shots, seed, jobs = noisy_args arg in
      noisy ~seed ~shots ?jobs Noise.ibm_qx2017
  | "qasm" ->
      no_arg ();
      qasm
  | "qsharp" -> qsharp ?operation:arg ()
  | "draw" ->
      no_arg ();
      draw
  | other -> failf "unknown backend %s (known: %s)" other (String.concat ", " known)
