(* The benchmark of record: runs one named workload from a seed, checks
   what the program delivered against independent references (the
   reference interpreter, the naive STL monitor), and prints its metrics.
   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  README.md maps every
   metric to its layer and workload.

     main.exe --workload generate|table3|falsify|corpus --seed N
              --seconds S --trace 0|1
     main.exe --selftest

   Workloads are sequential closed loops (one caller; the next job starts
   when the last one finishes), except table3, which runs its sweep on a
   Harness.Pool of nproc workers.  Each run first executes a fixed job
   list that depends on the seed alone: the checks and the delivered-*
   figures are computed over that list, never over however many further
   jobs the remaining seconds allowed.  End-to-end times are in kernel
   units (see "machine-speed calibration"). *)

module E = Harness.Experiment
module Reg = Models.Registry
module Tr = Coverage.Tracker
module Tc = Stcg.Testcase
module Ks = Slim.Branch.Key_set

let now = Unix.gettimeofday
let nproc = Domain.recommended_domain_count ()

(* --- workload sizes --------------------------------------------------- *)

(* generate: engine seeds per model in the fixed list.  One round of the
   8 models is 12-20 s and its time swings with the engine seed, so two
   rounds are averaged per run. *)
let gen_rounds = 2
let gen_budget = 3600.0
let t3_budget = 600.0

(* table3: sweeps per run, at engine seeds seed, seed + 1000, ...  A
   sweep's makespan moves with the engine seed and with what the other
   domain runs next to each cell, so two are measured. *)
let t3_sweeps = 2
let t3_tools = [ E.STCG; E.SLDV; E.SimCoTest ]

(* falsify: campaigns in the fixed list (seeds seed .. seed + n - 1),
   about 5 s. *)
let fals_fixed = 64

(* corpus: a fixed pool of fuzz cases, the first [corpus_models] of fuzz
   seed [corpus_fuzz_seed] ([corpus_max_steps] is the fuzz binary's
   default, so case i is `fuzz --seed 0` case i); the workload seed picks
   the engine seeds.  Fuzz models differ in cost by four orders of
   magnitude, so a pool drawn per seed made run time a function of which
   few heavy models were drawn.  --fuzz-seed swaps the pool, for check
   sweeps. *)
let corpus_fuzz_seed = ref 0
let corpus_models = 48
let corpus_max_steps = 12
let corpus_budget = 60.0

(* Engine seeds per corpus model in the fixed list: the models near the
   median take 30-60 ms each and vary most from run to run, and a
   shared machine's slow phases last seconds, so each model is measured
   three times. *)
let corpus_passes = 3

let setup_reps = 11

(* --- statistics ------------------------------------------------------- *)

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks; [a] sorted, non-empty. *)
let quantile a q =
  let n = Array.length a in
  let pos = q *. float (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then a.(n - 1)
  else a.(i) +. ((pos -. float i) *. (a.(i + 1) -. a.(i)))

let median = function [] -> 0.0 | xs -> quantile (sorted_array xs) 0.5

(* Harrell-Davis estimate of quantile [q]: every order statistic weighted
   by the Beta((n+1)q, (n+1)(1-q)) mass over its rank interval.  Unlike a
   single order statistic it does not jump when the quantile falls in a
   gap between job sizes: corpus model times have such gaps at the median
   and in the tail, and falsify campaign times fall in two speed modes on
   a shared 2-core VM, so single order statistics jumped by a third from
   run to run on identical work. *)
let hd_quantile q xs =
  let a = sorted_array xs in
  let n = Array.length a in
  if n <= 2 then quantile a q
  else begin
    let alpha = float (n + 1) *. q and beta = float (n + 1) *. (1.0 -. q) in
    let mode = (alpha -. 1.0) /. (alpha +. beta -. 2.0) in
    (* log of the Beta density up to a constant, 0 at its mode *)
    let logd x =
      ((alpha -. 1.0) *. log (x /. mode))
      +. ((beta -. 1.0) *. log ((1.0 -. x) /. (1.0 -. mode)))
    in
    let steps = 16 in
    let w =
      Array.init n (fun i ->
          let acc = ref 0.0 in
          for j = 0 to steps - 1 do
            let x = (float i +. ((float j +. 0.5) /. float steps)) /. float n in
            acc := !acc +. exp (logd x)
          done;
          !acc)
    in
    let total = Array.fold_left ( +. ) 0.0 w in
    let acc = ref 0.0 in
    Array.iteri (fun i wi -> acc := !acc +. (wi *. a.(i))) w;
    !acc /. total
  end

let hd_median = hd_quantile 0.5

(* The tail of a timing sample: the highest percentile with at least ten
   samples beyond it (Harrell-Davis estimate), returned with that
   percentile.  Under 20 samples such a percentile would sit below the
   median, so the tail is then the maximum (reported as p100). *)
let tail xs =
  let n = List.length xs in
  if n = 0 then (0.0, 0)
  else if n < 20 then (List.fold_left max neg_infinity xs, 100)
  else
    let q = float (n - 10) /. float n in
    (hd_quantile q xs, int_of_float (100.0 *. q))

(* The mean of the slowest tenth of a timing sample (at least one job):
   the end-to-end tail.  A single high percentile of corpus job times
   falls in the gap between the few heavy models and the rest, and moved
   by a tenth from run to run on identical work; the mean over the
   slowest tenth does not jump. *)
let tail_mean = function
  | [] -> 0.0
  | xs ->
    let a = sorted_array xs in
    let n = Array.length a in
    let k = max 1 (n / 10) in
    Array.fold_left ( +. ) 0.0 (Array.sub a (n - k) k) /. float k

let sum = List.fold_left ( +. ) 0.0
let mean = function [] -> 0.0 | xs -> sum xs /. float (List.length xs)
let ratio a b = if b = 0 then 0.0 else float a /. float b

(* Seconds per call of [f], repeating it until [min_s] have passed. *)
let per_call ?(min_s = 0.05) f =
  let t0 = now () in
  let n = ref 0 in
  while
    incr n;
    f ();
    now () -. t0 < min_s
  do
    ()
  done;
  (now () -. t0) /. float !n

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- machine-speed calibration ---------------------------------------- *)

(* A shared VM changes speed by 20-40% on identical work, in phases that
   last from under a second to minutes, so a whole run can fall in a
   slow one and ten runs of raw wall time spread past any useful bound.
   Every timed job is therefore also reported in kernel units (ku): its
   wall time divided by the time of a fixed reference kernel run next to
   it, on the same domain.  The kernel uses the standard library only,
   so no change to the program moves it; like the program's hot loops it
   allocates small short-lived maps and lists and sorts them, so a slow
   phase slows it about as much.  Raw wall times stay on the
   human-readable lines. *)
module Int_map = Map.Make (Int)

let kernel () =
  let st = ref 12345 and acc = ref 0.0 in
  for _ = 1 to 400 do
    let m = ref Int_map.empty in
    for i = 0 to 31 do
      st := ((!st * 1103515245) + 12345) land 0x3fffffff;
      m := Int_map.add (!st land 1023) (float i) !m
    done;
    acc := Int_map.fold (fun k v a -> a +. (v *. float k)) !m !acc;
    let l = List.init 48 (fun i -> ((i * 7919) + !st) land 4095) in
    acc := !acc +. float (List.hd (List.sort compare l))
  done;
  ignore (Sys.opaque_identity !acc)

(* One kernel sample, in seconds: the median of three runs, so that an
   interrupt or a collection in one of them does not move it.  The minor
   collection first keeps the program's young objects out of the
   kernel's own collections. *)
let kernel_s () =
  Gc.minor ();
  let a = snd (timed kernel) in
  let b = snd (timed kernel) in
  let c = snd (timed kernel) in
  Float.max (Float.min a b) (Float.min (Float.max a b) c)

(* --- outcome accounting ----------------------------------------------- *)

type outcome = {
  mutable attempted : int;
  mutable failures : string list;  (** labels of failed operations *)
  mutable violations : string list;  (** failed checks *)
}

let fresh_outcome () = { attempted = 0; failures = []; violations = [] }

let violation o fmt =
  Printf.ksprintf (fun s -> o.violations <- s :: o.violations) fmt

let fail_op o label = o.failures <- label :: o.failures

(* --- delivered-suite checks ------------------------------------------- *)

type delivered = {
  d_decision : float;  (** % of the replayed suite *)
  d_mcdc : float;
  d_undelivered_cond : int;  (** reported minus delivered objectives *)
  d_undelivered_mcdc : int;
  d_branches : Ks.t;  (** branches the replay covered *)
  d_prog : Slim.Ir.program;
  d_suite : Tc.t list;  (** the re-imported suite *)
}

(* Replay through the reference interpreter (the original map/Hashtbl
   one, not the slot executor the tools run on). *)
let replay_reference prog tracker (steps : Slim.Exec.inputs list) =
  let exec = Slim.Exec.handle prog in
  List.fold_left
    (fun (st, outs) inputs ->
      let o, st' =
        Slim.Interp.run_step_reference ~on_event:(Tr.observe tracker) prog st
          (Slim.Exec.smap_of_inputs exec inputs)
      in
      (st', o :: outs))
    (Slim.Interp.initial_state prog, [])
    steps
  |> snd |> List.rev

let replay_suite_reference prog suite =
  let t = Tr.create prog in
  List.iter (fun (tc : Tc.t) -> ignore (replay_reference prog t tc.Tc.steps)) suite;
  t

(* The exported suite goes through its text format and back, then is
   replayed on a fresh tracker by the reference interpreter:
   (a) the replay covers exactly the branches the tool reports covered;
   (b) the production replay ([Testcase.replay_suite]) counts the same;
   (c) delivered condition/MCDC never exceed what the tool reports.
   [justify] mirrors the tool's static justification on the replay.

   A mismatch in (a) is a known program defect, not a failed check, when
   the in-memory suite does cover the reported branches (the text export
   lost them: "export-lossy") or when every branch in the mismatch is
   one the analyzer proved Dead ([dead]; "analysis-unsound").  Those are
   returned as the operation's failure causes. *)
let check_suite o ~label ?(dead = []) ?(justify = fun _ -> ()) prog
    (raw : Tc.t list) (reported : Tr.t) =
  let suite = Tc.of_text prog (Tc.to_text prog raw) in
  let replayed = replay_suite_reference prog suite in
  let covered = Tr.covered_branches replayed in
  let claimed = Tr.covered_branches reported in
  let causes = ref [] in
  if not (Ks.equal covered claimed) then begin
    let mismatch = Ks.union (Ks.diff covered claimed) (Ks.diff claimed covered) in
    if Ks.equal (Tr.covered_branches (replay_suite_reference prog raw)) claimed
    then causes := "export-lossy" :: !causes
    else if Ks.for_all (fun k -> List.mem k dead) mismatch then
      causes := "analysis-unsound" :: !causes
    else
      violation o "%s: (a) replay covers %d branches, the tool reports %d"
        label (Ks.cardinal covered) (Ks.cardinal claimed)
  end;
  (* a delivered branch the analyzer proved Dead *)
  if List.exists (fun k -> Ks.mem k covered) dead
     && not (List.mem "analysis-unsound" !causes)
  then causes := "analysis-unsound" :: !causes;
  let counts t = (Tr.decision t, Tr.condition t, Tr.mcdc t) in
  if counts (Tc.replay_suite prog suite) <> counts replayed then
    violation o "%s: (b) Testcase.replay_suite disagrees with the reference"
      label;
  justify replayed;
  let rc = Tr.condition reported and dc = Tr.condition replayed in
  let rm = Tr.mcdc reported and dm = Tr.mcdc replayed in
  if dc.Tr.covered > rc.Tr.covered || dm.Tr.covered > rm.Tr.covered
     || dc.Tr.total <> rc.Tr.total || dm.Tr.total <> rm.Tr.total
  then
    violation o "%s: (c) delivered condition %d/%d mcdc %d/%d vs reported \
                 %d/%d %d/%d"
      label dc.Tr.covered dc.Tr.total dm.Tr.covered dm.Tr.total rc.Tr.covered
      rc.Tr.total rm.Tr.covered rm.Tr.total;
  ( {
      d_decision = Tr.pct (Tr.decision replayed);
      d_mcdc = Tr.pct dm;
      d_undelivered_cond = rc.Tr.covered - dc.Tr.covered;
      d_undelivered_mcdc = rm.Tr.covered - dm.Tr.covered;
      d_branches = covered;
      d_prog = prog;
      d_suite = suite;
    },
    List.rev !causes )

(* One checked operation: its failure causes, if any, become one failed
   operation labelled "cause+cause:id". *)
let record o id (d, causes) =
  o.attempted <- o.attempted + 1;
  if causes <> [] then fail_op o (String.concat "+" causes ^ ":" ^ id);
  d

let check_result o ~id prog (r : Stcg.Run_result.t) =
  record o id
    (check_suite o ~label:id prog r.Stcg.Run_result.testcases
       r.Stcg.Run_result.tracker)

(* --- falsification re-score ------------------------------------------- *)

let same_float a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  || (Float.is_nan a && Float.is_nan b)

let entry_of name =
  match Reg.find name with
  | Some e -> e
  | None -> failwith ("perfbench: unknown registry model " ^ name)

let plan_of (cfg : Spec.Falsify.config) exec =
  Spec.Signal.plan exec ~shape:cfg.Spec.Falsify.shape
    ~steps:cfg.Spec.Falsify.steps ~segments:cfg.Spec.Falsify.segments

(* Monitor trace of reference-interpreter outputs: every scalar output,
   booleans as 0/1 — the columns {!Spec.Monitor.of_run} builds. *)
let reference_trace exec outs =
  let cols =
    Array.to_list (Slim.Exec.output_vars exec)
    |> List.filter_map (fun (v : Slim.Ir.var) ->
           match v.Slim.Ir.ty with
           | Slim.Value.Tvec _ -> None
           | _ ->
             Some
               ( v.Slim.Ir.name,
                 Array.of_list
                   (List.map
                      (fun m ->
                        Slim.Value.to_real (Slim.Exec.Smap.find v.Slim.Ir.name m))
                      outs) ))
  in
  Spec.Monitor.of_columns cols

(* Every row's witness is rebuilt through the public search with the
   row's seed; its naive robustness must equal the reported minimum bit
   for bit, both on the executor's trace and on the reference
   interpreter's, and every seeded fault must be falsified.  Returns the
   witnesses' delivered coverage, per model. *)
let check_campaign o ~seed (rows : Spec.Falsify.row list) =
  let cfg = Spec.Falsify.default_config ~seed in
  let trackers = Hashtbl.create 8 in
  let suites = Hashtbl.create 8 in
  List.iteri
    (fun idx ((req : Spec.Requirements.req), (row : Spec.Falsify.row)) ->
      let label =
        Printf.sprintf "falsify seed %d %s/%s" seed row.Spec.Falsify.f_model
          row.Spec.Falsify.f_req
      in
      let prog = (entry_of req.Spec.Requirements.r_model).Reg.program () in
      let exec = Slim.Exec.handle prog in
      let plan = plan_of cfg exec in
      let res =
        Spec.Search.run ~samples:cfg.Spec.Falsify.samples
          ~descent:cfg.Spec.Falsify.descent ~plan
          ~seed:(Spec.Prng.mix_seed cfg.Spec.Falsify.seed idx)
          req.Spec.Requirements.r_formula
      in
      let f = req.Spec.Requirements.r_formula in
      let rob = row.Spec.Falsify.f_rob in
      let w = Spec.Search.witness_trace ~plan res.Spec.Search.best_params in
      let naive = Spec.Monitor.robustness_naive ~at:0 w f in
      if not (same_float naive rob) then
        violation o "%s: naive robustness %h of the witness, reported %h" label
          naive rob;
      let model = req.Spec.Requirements.r_model in
      let tracker =
        match Hashtbl.find_opt trackers model with
        | Some t -> t
        | None ->
          let t = Tr.create prog in
          Hashtbl.replace trackers model t;
          t
      in
      let steps = Spec.Signal.render plan res.Spec.Search.best_params in
      let outs = replay_reference prog tracker steps in
      let rob_ref =
        Spec.Monitor.robustness_naive ~at:0 (reference_trace exec outs) f
      in
      if not (same_float rob_ref rob) then
        violation o "%s: reference-interpreter robustness %h, reported %h"
          label rob_ref rob;
      if req.Spec.Requirements.r_fault && not row.Spec.Falsify.f_falsified then
        violation o "%s: seeded fault not falsified" label;
      let tc =
        { Tc.tc_id = idx; steps; origin = Tc.Random_exec; found_at = 0.0;
          new_branches = [] }
      in
      Hashtbl.replace suites model
        (prog, tc :: Option.fold ~none:[] ~some:snd (Hashtbl.find_opt suites model)))
    (List.combine Spec.Requirements.table rows);
  List.map
    (fun model ->
      let t = Hashtbl.find trackers model in
      let prog, suite = Hashtbl.find suites model in
      {
        d_decision = Tr.pct (Tr.decision t);
        d_mcdc = Tr.pct (Tr.mcdc t);
        d_undelivered_cond = 0;
        d_undelivered_mcdc = 0;
        d_branches = Tr.covered_branches t;
        d_prog = prog;
        d_suite = List.rev suite;
      })
    (Spec.Requirements.models ())

(* --- the closed loop -------------------------------------------------- *)

type pass = {
  times : float list;  (** wall seconds of every job, in order *)
  ku : float list;  (** the same jobs in kernel units *)
  kernels : float list;  (** every kernel sample, seconds *)
  round_ku : float;  (** the fixed list in kernel units *)
  wall : float;  (** wall seconds of the whole loop *)
}

(* Traced mode runs every job twice, telemetry off and on, and sums the
   two wall times here: their ratio is the telemetry overhead.  Pairing
   job by job keeps slow phases of a shared machine out of the ratio, and
   alternating which run goes first keeps warm-up out of it. *)
let paired = ref false
let untraced_s = ref 0.0
let traced_s = ref 0.0

(* Runs [fixed] in order, then [extra k] (k = 0, 1, ...) while fewer than
   [seconds] have passed since the start.  Returns the fixed list's
   results (only those are checked) and the timings of every job; the
   untraced twin runs of traced mode are left out of both, and so are
   the kernel samples taken before the first job and after every job. *)
let closed_loop ~seconds ~fixed ~extra run =
  let t0 = now () in
  let excluded = ref 0.0 in
  let elapsed () = now () -. t0 -. !excluded in
  let times = ref [] and kus = ref [] and kernels = ref [] in
  let sample () =
    let k, dt = timed kernel_s in
    excluded := !excluded +. dt;
    kernels := k :: !kernels;
    k
  in
  let last_k = ref (sample ()) in
  let untraced x =
    Telemetry.disable ();
    let dt = snd (timed (fun () -> run x)) in
    Telemetry.enable ();
    untraced_s := !untraced_s +. dt;
    excluded := !excluded +. dt
  in
  let job x =
    let first = !paired && List.length !times mod 2 = 0 in
    if first then untraced x;
    let r, dt = timed (fun () -> run x) in
    if !paired then begin
      traced_s := !traced_s +. dt;
      if not first then untraced x
    end;
    let k = sample () in
    times := dt :: !times;
    (* over the mean of the kernel samples just before and after it *)
    kus := 2.0 *. dt /. (!last_k +. k) :: !kus;
    last_k := k;
    r
  in
  let results = List.map job fixed in
  let round_ku = sum !kus in
  let k = ref 0 in
  while elapsed () < seconds do
    ignore (job (extra !k));
    incr k
  done;
  (* the checks that follow are not part of the traced work *)
  if !paired then Telemetry.disable ();
  ( results,
    { times = List.rev !times; ku = List.rev !kus; kernels = !kernels; round_ku;
      wall = elapsed () } )

(* --- workloads -------------------------------------------------------- *)

type sched = {
  workers : int;
  busy_ratio : float;
  tail_idle_s : float;
  job_s : float list;
}

(* What a workload run leaves for the metrics. *)
type run = {
  pass : pass;
  job_ku : float list;  (** the jobs p50 and tail are taken over, in ku *)
  round_ku : float;  (** the fixed list in ku *)
  kernels : float list;  (** every kernel sample, seconds *)
  delivered : delivered list;  (** over the fixed list *)
  busy : (string * float) list;  (** tool -> summed job wall seconds *)
  sched : sched;
  probe_progs : Slim.Ir.program list;  (** the workload's models *)
  probe_docs : Text.Document.t list;
  fixed : (string * string) list;  (** per-seed results, for determinism *)
  headline : (string * float * string) list;  (** the workload's own names *)
}

let sequential_sched (p : pass) =
  { workers = 1; busy_ratio = (if p.wall > 0.0 then sum p.times /. p.wall else 0.0);
    tail_idle_s = 0.0; job_s = p.times }

let registry_doc (e : Reg.entry) =
  {
    Text.Document.source = Text.Source.of_registry e.Reg.source;
    spec =
      List.map
        (fun (r : Spec.Requirements.req) ->
          (r.Spec.Requirements.r_name, r.Spec.Requirements.r_formula))
        (Spec.Requirements.for_model e.Reg.name);
  }

(* Set-up for the registry workloads: build every model from its source
   and compile it.  The tools run on [entry.program ()], which [prime]
   compiles once outside the timed region. *)
let setup_registry entries () =
  List.iter
    (fun (e : Reg.entry) ->
      ignore
        (Slim.Exec.compile
           (Text.Source.program_of (Text.Source.of_registry e.Reg.source))))
    entries

let prime entries =
  List.iter (fun (e : Reg.entry) -> ignore (Slim.Exec.handle (e.Reg.program ()))) entries

let fmt_pct x = Printf.sprintf "%.17g" x

let delivered_fixed label ds =
  List.mapi
    (fun i d ->
      (Printf.sprintf "%s.%d" label i,
       Printf.sprintf "%s/%s/%d/%d" (fmt_pct d.d_decision) (fmt_pct d.d_mcdc)
         d.d_undelivered_cond d.d_undelivered_mcdc))
    ds

let generate o ~seed ~seconds =
  let entries = Reg.entries in
  prime entries;
  let fixed =
    List.concat_map
      (fun k -> List.map (fun e -> (e, seed + (1000 * k))) entries)
      (List.init gen_rounds Fun.id)
  in
  let results, pass =
    closed_loop ~seconds ~fixed
      ~extra:(fun k -> List.nth fixed (k mod List.length fixed))
      (fun ((e : Reg.entry), s) -> E.run_tool ~budget:gen_budget ~seed:s E.STCG e)
  in
  let delivered =
    List.map2
      (fun ((e : Reg.entry), s) r ->
        check_result o ~id:(Printf.sprintf "STCG.%s.s%d" e.Reg.name s)
          (e.Reg.program ()) r)
      fixed results
  in
  let suites = float (List.length pass.times) in
  let p50 = hd_median pass.times and tl, pct = tail pass.times in
  {
    pass;
    job_ku = pass.ku;
    round_ku = pass.round_ku;
    kernels = pass.kernels;
    delivered;
    busy = [ ("STCG", sum pass.times) ];
    sched = sequential_sched pass;
    probe_progs = List.map (fun (e : Reg.entry) -> e.Reg.program ()) entries;
    probe_docs = List.map registry_doc entries;
    fixed = delivered_fixed "suite" delivered;
    headline =
      [ ("gen.suites_per_min", 60.0 *. suites /. pass.wall, "1/min");
        ("gen.suite_s.p50", p50, "s");
        (Printf.sprintf "gen.suite_s.tail(p%d,n=%d)" pct (List.length pass.times), tl, "s");
        ("gen.delivered_decision_pct", mean (List.map (fun d -> d.d_decision) delivered), "%");
        ("gen.delivered_mcdc_pct", mean (List.map (fun d -> d.d_mcdc) delivered), "%") ];
  }

let t3_cost ((e : Reg.entry), tool) =
  (* the weights Experiment.table3 schedules with *)
  let w = match tool with E.SLDV -> 1 | E.SimCoTest -> 3 | _ -> 8 in
  w * (1 + Slim.Branch.count (e.Reg.program ()))

type cell = {
  c_run : Stcg.Run_result.t;
  c_start : float;  (** seconds from the sweep start *)
  c_end : float;
  c_domain : int;
  c_k0 : float;  (** kernel samples just before and after, seconds *)
  c_k1 : float;
}

(* One Table III sweep on [pool], each cell bracketed by kernel samples
   on the domain that runs it.  A sweep is table3's job; its cells are
   the pool's jobs. *)
type sweep = { s_cells : cell list; s_makespan : float; s_workers : int }

let t3_sweep pool ~seed cells =
  let t0 = now () in
  let out =
    Harness.Pool.map pool ~cost:t3_cost
      (fun ((e : Reg.entry), tool) ->
        let c_k0 = kernel_s () in
        let c_start = now () -. t0 in
        let c_run = E.run_tool ~budget:t3_budget ~seed tool e in
        let c_end = now () -. t0 in
        let c_k1 = kernel_s () in
        { c_run; c_start; c_end; c_domain = (Domain.self () :> int); c_k0; c_k1 })
      cells
  in
  { s_cells = out; s_makespan = now () -. t0; s_workers = Harness.Pool.workers pool }

let cell_s c = c.c_end -. c.c_start
let cell_kernels sw = List.concat_map (fun c -> [ c.c_k0; c.c_k1 ]) sw.s_cells

(* A sweep's makespan in ku: over the mean of the kernel samples around
   all its cells, on both domains, the highest and lowest tenth left
   out (the first cells of a process drew a few samples three to five
   times the rest).  Interpolating between neighbouring samples, as the
   sequential workloads do, spread more over thirteen seeds (0.10
   against 0.08): the longest cell runs 13-14 s between two samples of
   its own domain. *)
let sweep_ku sw =
  let a = sorted_array (cell_kernels sw) in
  let n = Array.length a in
  let cut = n / 10 in
  sw.s_makespan /. mean (Array.to_list (Array.sub a cut (n - (2 * cut))))

(* Idle time at the end of a sweep, summed over its workers. *)
let tail_idle sw =
  let last_end = Hashtbl.create 4 in
  List.iter
    (fun c ->
      Hashtbl.replace last_end c.c_domain
        (max c.c_end (Option.value ~default:0.0 (Hashtbl.find_opt last_end c.c_domain))))
    sw.s_cells;
  Hashtbl.fold (fun _ f acc -> acc +. (sw.s_makespan -. f)) last_end 0.0
  +. (float (max 0 (sw.s_workers - Hashtbl.length last_end)) *. sw.s_makespan)

(* The fixed list is [t3_sweeps] sweeps at engine seeds seed, seed + 1000,
   ..., on one pool; no further sweeps follow, whatever [seconds]. *)
let table3 o ~seed ~seconds:_ =
  let entries = Reg.entries in
  prime entries;
  let cells =
    List.concat_map (fun e -> List.map (fun t -> (e, t)) t3_tools) entries
  in
  let seeds = List.init t3_sweeps (fun k -> seed + (1000 * k)) in
  let sweeps, pass =
    Harness.Pool.with_pool ~jobs:nproc (fun pool ->
        closed_loop ~seconds:0.0 ~fixed:seeds ~extra:(fun _ -> seed)
          (fun s -> t3_sweep pool ~seed:s cells))
  in
  let delivered =
    List.concat
      (List.map2
         (fun s sw ->
           List.map2
             (fun ((e : Reg.entry), tool) c ->
               check_result o
                 ~id:(Printf.sprintf "%s.%s.s%d" (E.tool_name tool) e.Reg.name s)
                 (e.Reg.program ()) c.c_run)
             cells sw.s_cells)
         seeds sweeps)
  in
  let all = List.concat_map (fun sw -> List.combine cells sw.s_cells) sweeps in
  let job_s = List.map (fun (_, c) -> cell_s c) all in
  let busy =
    List.map
      (fun tool ->
        ( E.tool_name tool,
          sum (List.filter_map (fun ((_, t), c) -> if t = tool then Some (cell_s c) else None) all) ))
      t3_tools
  in
  let workers = (List.hd sweeps).s_workers in
  let makespans = List.map (fun sw -> sw.s_makespan) sweeps in
  let kus = List.map sweep_ku sweeps in
  {
    pass;
    job_ku = kus;
    round_ku = sum kus;
    kernels = List.concat_map cell_kernels sweeps;
    delivered;
    busy;
    sched =
      { workers; busy_ratio = sum job_s /. (float workers *. sum makespans);
        tail_idle_s = sum (List.map tail_idle sweeps); job_s };
    probe_progs = List.map (fun (e : Reg.entry) -> e.Reg.program ()) entries;
    probe_docs = List.map registry_doc entries;
    fixed = delivered_fixed "cell" delivered;
    headline =
      [ ("t3.sweep_s", mean makespans, "s");
        ("t3.delivered_mcdc_pct", mean (List.map (fun d -> d.d_mcdc) delivered), "%") ];
  }

let campaign s =
  Spec.Falsify.campaign ~jobs:1 (Spec.Falsify.default_config ~seed:s)
    Spec.Requirements.table

let falsify o ~seed ~seconds =
  let models = List.map entry_of (Spec.Requirements.models ()) in
  prime models;
  let fixed = List.init fals_fixed (fun i -> seed + i) in
  let rows, pass =
    closed_loop ~seconds ~fixed ~extra:(fun k -> seed + fals_fixed + k) campaign
  in
  let delivered =
    List.concat
      (List.map2
         (fun s rs ->
           o.attempted <- o.attempted + 1;
           check_campaign o ~seed:s rs)
         fixed rows)
  in
  let all_rows = List.concat rows in
  let falsified =
    ratio (List.length (List.filter (fun r -> r.Spec.Falsify.f_falsified) all_rows))
      (List.length all_rows)
  in
  let ms = List.map (fun s -> 1000.0 *. s) pass.times in
  let tl, pct = tail ms in
  {
    pass;
    job_ku = pass.ku;
    round_ku = pass.round_ku;
    kernels = pass.kernels;
    delivered;
    busy = [];
    sched = sequential_sched pass;
    probe_progs = List.map (fun (e : Reg.entry) -> e.Reg.program ()) models;
    probe_docs = List.map registry_doc models;
    fixed =
      ("falsified_ratio", fmt_pct falsified)
      :: ( "rows",
           Digest.to_hex
             (Digest.string
                (String.concat ","
                   (List.concat_map
                      (List.map (fun r -> Printf.sprintf "%h" r.Spec.Falsify.f_rob))
                      rows))) )
      :: delivered_fixed "model" delivered;
    headline =
      [ ("fals.campaigns_per_s", float (List.length pass.times) /. pass.wall, "1/s");
        ("fals.campaign_ms.p50", hd_median ms, "ms");
        (Printf.sprintf "fals.campaign_ms.tail(p%d,n=%d)" pct (List.length ms), tl, "ms");
        ("fals.falsified_ratio", falsified, "ratio") ];
  }

type corpus_model = {
  c_seed : int;  (** fuzz seed *)
  c_index : int;  (** fuzz case *)
  c_src : Text.Source.t;
  c_text : string;
}

let corpus_model ~seed i =
  let spec, _, _ = Fuzzer.Campaign.case_gen ~seed ~max_steps:corpus_max_steps i in
  let src = Text.Source.of_spec spec in
  let text = try Text.Printer.print src with Text.Printer.Print_error _ -> "" in
  { c_seed = seed; c_index = i; c_src = src; c_text = text }

(* Corpus set-up: the fuzz cases of the pool, written as .stcg text.  A
   case the printer rejects keeps empty text and fails as unparsable. *)
let setup_corpus () = List.init corpus_models (corpus_model ~seed:!corpus_fuzz_seed)

let octagon = { Analysis.Analyzer.domain = `Octagon }

let corpus_config ~seed =
  { Stcg.Engine.default_config with
    Stcg.Engine.seed; budget = corpus_budget; analyze = true;
    verdict_priority = true; analysis_config = octagon }

(* One corpus job: parse, compile, octagon verdicts, then the engine with
   analysis, verdict priority and the octagon domain. *)
let corpus_job (m, seed) =
  match Text.Parser.parse_string m.c_text with
  | Error e -> Error (Text.Syntax.error_to_string e)
  | Ok src ->
    let prog = Text.Source.program_of src in
    ignore (Slim.Exec.handle prog);
    let verdicts = Analysis.Verdict.of_program ~config:octagon prog in
    let run, engine_s =
      timed (fun () -> Stcg.Engine.run ~config:(corpus_config ~seed) prog)
    in
    Ok (src, prog, verdicts, run, engine_s)

(* The corpus checks of one job: exact text round trip, then the
   delivered-suite checks with the analyzer's justification mirrored. *)
let corpus_check o ~seed m r =
  let id = Printf.sprintf "fuzz%d.%d.s%d" m.c_seed m.c_index seed in
  match r with
  | Error msg ->
    Printf.printf "corpus %s: %s\n" id msg;
    record o id ((), [ "unparsable" ]);
    []
  | Ok (src, prog, verdicts, (run : Stcg.Engine.run), _) ->
    if Text.Printer.print src <> m.c_text then
      violation o "%s: reprinted text differs from the input" id;
    if not (Text.Source.equal src m.c_src) then
      violation o "%s: parsed source differs from the generated one" id;
    let dead = Analysis.Verdict.dead_branches verdicts in
    let justify t =
      Tr.set_justified t ~branches:dead
        ~conditions:(Analysis.Verdict.dead_conditions verdicts)
        ~mcdc:(Analysis.Verdict.dead_mcdc verdicts)
    in
    [ record o id
        (check_suite o ~label:id ~dead ~justify prog run.Stcg.Engine.r_testcases
           run.Stcg.Engine.r_tracker) ]

let corpus o ~seed ~seconds (models : corpus_model list) =
  (* the fixed list is the pool at engine seeds seed, seed + 1000, ...
     ([corpus_passes] of them); later passes take the next ones *)
  let n = List.length models in
  let pass_at k = List.map (fun m -> (m, seed + (1000 * k))) models in
  let fixed = List.concat_map pass_at (List.init corpus_passes Fun.id) in
  let results, pass =
    closed_loop ~seconds ~fixed
      ~extra:(fun k -> (List.nth models (k mod n), seed + (1000 * (corpus_passes + (k / n)))))
      corpus_job
  in
  let delivered =
    List.concat
      (List.map2 (fun (m, s) r -> corpus_check o ~seed:s m r) fixed results)
  in
  let engine_s =
    List.fold_left
      (fun acc -> function Ok (_, _, _, _, s) -> acc +. s | Error _ -> acc)
      0.0 results
  in
  let ms = List.map (fun s -> 1000.0 *. s) pass.times in
  let tl, pct = tail ms in
  {
    pass;
    job_ku = pass.ku;
    round_ku = pass.round_ku;
    kernels = pass.kernels;
    delivered;
    busy = [ ("STCG", engine_s) ];
    sched = sequential_sched pass;
    probe_progs =
      List.filteri (fun i _ -> i < n) results
      |> List.filter_map (function Ok (_, prog, _, _, _) -> Some prog | Error _ -> None);
    probe_docs = List.map (fun m -> Text.Document.of_source m.c_src) models;
    fixed = delivered_fixed "model" delivered;
    headline =
      [ ("corpus.models_per_s", float (List.length pass.times) /. pass.wall, "1/s");
        ("corpus.model_ms.p50", hd_median ms, "ms");
        (Printf.sprintf "corpus.model_ms.tail(p%d,n=%d)" pct (List.length ms), tl, "ms");
        ("corpus.delivered_mcdc_pct", mean (List.map (fun d -> d.d_mcdc) delivered), "%") ];
  }

(* Set-up for falsify: build and compile each requirement's model and
   plan its input signals. *)
let setup_falsify () =
  List.iter
    (fun (r : Spec.Requirements.req) ->
      let e = entry_of r.Spec.Requirements.r_model in
      let prog = Text.Source.program_of (Text.Source.of_registry e.Reg.source) in
      ignore (plan_of (Spec.Falsify.default_config ~seed:0) (Slim.Exec.compile prog)))
    Spec.Requirements.table

(* Each workload: its set-up (timed [setup_reps] times, median reported)
   and its run. *)
let workload = function
  | "generate" -> Some (setup_registry Reg.entries, generate)
  | "table3" ->
    Some
      ( (fun () ->
          setup_registry Reg.entries ();
          Harness.Pool.with_pool ~jobs:nproc ignore),
        table3 )
  | "falsify" -> Some (setup_falsify, falsify)
  | "corpus" ->
    Some
      ( (fun () -> ignore (setup_corpus ())),
        fun o ~seed ~seconds -> corpus o ~seed ~seconds (setup_corpus ()) )
  | _ -> None

(* --- per-layer probes (traced mode) ----------------------------------- *)

let counters () = (Telemetry.snapshot ~nondet:true ()).Telemetry.sn_counters
let counter snap name = Option.value ~default:0 (List.assoc_opt name snap)

let span_ns name =
  List.fold_left
    (fun acc (n, _, ns) -> if n = name then Int64.add acc ns else acc)
    0L (Telemetry.span_totals ())
  |> Int64.to_float

(* Runs [f] with fresh telemetry on and returns its result and the
   counter totals it produced. *)
let with_counters f =
  Telemetry.reset ();
  Telemetry.enable ();
  let r = f () in
  Telemetry.disable ();
  (r, counters ())

let slim_probe (r : run) =
  let suites =
    List.filter_map
      (fun d -> if d.d_suite = [] then None else Some (d.d_prog, d.d_suite))
      r.delivered
  in
  let steps =
    List.fold_left
      (fun acc (_, s) -> List.fold_left (fun a tc -> a + Tc.length tc) acc s)
      0 suites
  in
  let trackers = List.map (fun (prog, _) -> Tr.create prog) suites in
  let replay_all with_tracker () =
    List.iter2
      (fun (prog, suite) t ->
        let tracker = if with_tracker then Some t else None in
        List.iter (fun tc -> ignore (Tc.replay ?tracker prog tc)) suite)
      suites trackers
  in
  let bare = per_call (replay_all false) in
  let traced = per_call (replay_all true) in
  let per_step s = if steps = 0 then 0.0 else 1e9 *. s /. float steps in
  let compile =
    per_call (fun () -> List.iter (fun p -> ignore (Slim.Exec.compile p)) r.probe_progs)
  in
  [ ("slim.step_ns", per_step bare, "ns");
    ("slim.steps", float steps, "count");
    ("slim.compile_us", 1e6 *. compile /. float (max 1 (List.length r.probe_progs)), "us");
    ("coverage.observe_ns_per_step", per_step (traced -. bare), "ns") ]

let analysis_probe (r : run) =
  let n = float (max 1 (List.length r.probe_progs)) in
  let interval =
    per_call ~min_s:0.0 (fun () ->
        List.iter (fun p -> ignore (Analysis.Verdict.of_program p)) r.probe_progs)
  in
  let (dead, octagon_s), snap =
    with_counters (fun () ->
        timed (fun () ->
            List.fold_left
              (fun acc p ->
                let s = Analysis.Verdict.of_program ~config:octagon p in
                let b, c, m = Analysis.Verdict.counts s Analysis.Verdict.Dead in
                acc + b + c + m)
              0 r.probe_progs))
  in
  [ ("analysis.octagon_ms", 1000.0 *. octagon_s /. n, "ms");
    ("analysis.interval_ms", 1000.0 *. interval /. n, "ms");
    ("analysis.fixpoint_iterations", float (counter snap "analysis.fixpoint_iterations"), "count");
    ("analysis.widenings", float (counter snap "analysis.widenings"), "count");
    ("analysis.dead_objectives", float dead, "count") ]

let text_probe (r : run) =
  let n = float (max 1 (List.length r.probe_docs)) in
  let texts = List.map Text.Printer.print_document r.probe_docs in
  let print =
    per_call (fun () -> List.iter (fun d -> ignore (Text.Printer.print_document d)) r.probe_docs)
  in
  let parse =
    per_call (fun () -> List.iter (fun t -> ignore (Text.Parser.parse_document_string t)) texts)
  in
  let lint =
    per_call (fun () ->
        List.iter2 (fun d text -> ignore (Text.Doclint.run ~text d)) r.probe_docs texts)
  in
  [ ("text.parse_us", 1e6 *. parse /. n, "us");
    ("text.print_us", 1e6 *. print /. n, "us");
    ("text.doclint_us", 1e6 *. lint /. n, "us") ]

(* One falsification campaign at the workload seed, one timed search per
   requirement (the body of Falsify.campaign, timed from outside). *)
let spec_probe ~seed =
  let cfg = Spec.Falsify.default_config ~seed in
  let per_req, snap =
    with_counters (fun () ->
        List.mapi
          (fun idx (req : Spec.Requirements.req) ->
            let exec =
              Slim.Exec.handle ((entry_of req.Spec.Requirements.r_model).Reg.program ())
            in
            let plan = plan_of cfg exec in
            let res, search_s =
              timed (fun () ->
                  Spec.Search.run ~samples:cfg.Spec.Falsify.samples
                    ~descent:cfg.Spec.Falsify.descent ~plan
                    ~seed:(Spec.Prng.mix_seed seed idx) req.Spec.Requirements.r_formula)
            in
            (req, plan, res, search_s))
          Spec.Requirements.table)
  in
  let witness (_, plan, res, _) = Spec.Search.witness_trace ~plan res.Spec.Search.best_params in
  let traces = List.map witness per_req in
  let trace_s = per_call (fun () -> List.iter (fun x -> ignore (witness x)) per_req) in
  let steps = List.fold_left (fun a t -> a + Spec.Monitor.length t) 0 traces in
  let monitor_s =
    per_call (fun () ->
        List.iter2
          (fun (req, _, _, _) t ->
            ignore (Spec.Monitor.robustness_signal t req.Spec.Requirements.r_formula))
          per_req traces)
  in
  let n = List.length per_req in
  [ ("spec.search_ms.p50", 1000.0 *. median (List.map (fun (_, _, _, s) -> s) per_req), "ms");
    ("spec.trace_us", 1e6 *. trace_s /. float n, "us");
    ("spec.monitor_ns_per_step", 1e9 *. monitor_s /. float (max 1 steps), "ns");
    ("spec.traces_per_campaign",
     float (List.fold_left (fun a (_, _, res, _) -> a + res.Spec.Search.traces) 0 per_req), "count");
    ("spec.robustness_evals", float (counter snap "spec.robustness_evals"), "count");
    ("spec.falsified_ratio",
     ratio (List.length (List.filter (fun (_, _, res, _) -> res.Spec.Search.falsified) per_req)) n,
     "ratio") ]

(* Layers reached only inside Engine.run / the solver: the program's own
   telemetry counters and span totals over the traced pass. *)
let program_layers (r : run) snap =
  let c = counter snap in
  let hist name =
    List.assoc_opt name (Telemetry.snapshot ~nondet:true ()).Telemetry.sn_histograms
  in
  let run_ns = span_ns "engine.run" in
  let share ns = if run_ns > 0.0 then ns /. run_ns else 0.0 in
  let solve = share (span_ns "engine.solve") in
  let random = share (span_ns "engine.random_exec") in
  let busy tool = Option.value ~default:0.0 (List.assoc_opt tool r.busy) in
  let sorted_jobs = r.sched.job_s in
  [ ("engine.solve_share", solve, "ratio");
    ("engine.random_exec_share", random, "ratio");
    ("engine.unattributed_share", (if run_ns > 0.0 then 1.0 -. solve -. random else 0.0), "ratio");
    ("engine.solve_attempts", float (c "engine.solve_attempts"), "count");
    ("engine.cache_hits_per_attempt", ratio (c "engine.solve_cache_hits") (c "engine.solve_attempts"), "ratio");
    ("engine.tree_nodes", float (c "engine.tree_nodes"), "count");
    ("engine.testcases", float (c "engine.testcases"), "count");
    ("engine.undelivered_conditions",
     float (List.fold_left (fun a d -> a + d.d_undelivered_cond) 0 r.delivered), "count");
    ("engine.undelivered_mcdc",
     float (List.fold_left (fun a d -> a + d.d_undelivered_mcdc) 0 r.delivered), "count");
    ("symexec.solves", float (c "symexec.solves"), "count");
    ("symexec.paths_per_solve", ratio (c "symexec.paths") (c "symexec.solves"), "ratio");
    ("symexec.unsat_ratio", ratio (c "symexec.unsat") (c "symexec.solves"), "ratio");
    ("symexec.prunes", float (c "symexec.prunes"), "count");
    ("solver.calls", float (c "solver.solve_calls"), "count");
    ("solver.nodes_per_call", ratio (c "solver.nodes") (c "solver.solve_calls"), "ratio");
    ("solver.splits", float (c "solver.splits"), "count");
    ("solver.hc4_rounds", float (c "solver.hc4_rounds"), "count");
    ("solver.hc4_memo_hits_per_round", ratio (c "solver.hc4_memo_hits") (c "solver.hc4_rounds"), "ratio");
    ("solver.unknown_ratio", ratio (c "solver.unknown") (c "solver.solve_calls"), "ratio");
    ("solver.term_size.p99",
     (match hist "solver.term_size" with Some h -> float h.Telemetry.h_p99 | None -> 0.0), "nodes");
    ("term.dedup_ratio",
     ratio (c "term.hashcons_hits") (c "term.hashcons_hits" + c "term.hashcons_nodes"), "ratio");
    ("baselines.stcg_busy_s", busy "STCG", "s");
    ("baselines.sldv_busy_s", busy "SLDV", "s");
    ("baselines.simcotest_busy_s", busy "SimCoTest", "s");
    ("pool.workers", float r.sched.workers, "count");
    ("pool.busy_ratio", r.sched.busy_ratio, "ratio");
    ("pool.tail_idle_s", r.sched.tail_idle_s, "s");
    ("pool.job_s.p50", median sorted_jobs, "s");
    ("pool.job_s.max", List.fold_left max 0.0 sorted_jobs, "s") ]

(* --- output ----------------------------------------------------------- *)

let peak_rss_mb () =
  let from_proc =
    try
      let ic = open_in "/proc/self/status" in
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> Some (float kb /. 1024.0))
        | _ -> scan ()
        | exception End_of_file -> None
      in
      let r = scan () in
      close_in ic;
      r
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
    float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. (1024.0 *. 1024.0)

let json_string s = "\"" ^ Telemetry.json_escape s ^ "\""

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result o metrics =
  let failed = List.length o.failures in
  List.iter (fun v -> Printf.printf "check failed: %s\n" v) (List.rev o.violations);
  List.iter (fun l -> Printf.printf "failed operation: %s\n" l) (List.rev o.failures);
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (o.violations = []) o.attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string n)
              (json_number v) (json_string u))
          metrics))

let print_lines title rows =
  Printf.printf "%s\n" title;
  List.iter (fun (n, v, u) -> Printf.printf "  %-36s %14.6g %s\n" n v u) rows

(* --- entry points ----------------------------------------------------- *)

let end_to_end ~setup_s (r : run) =
  [ ("setup_s", setup_s, "s");
    ("peak_rss_mb", peak_rss_mb (), "MiB");
    ("round_ku", r.round_ku, "ku");
    ("job_ku.p50", hd_median r.job_ku, "ku");
    ("job_ku.tail", tail_mean r.job_ku, "ku");
    ("delivered_decision_pct", mean (List.map (fun d -> d.d_decision) r.delivered), "%");
    ("delivered_mcdc_pct", mean (List.map (fun d -> d.d_mcdc) r.delivered), "%") ]

let print_fixed r extra =
  Printf.printf "fixed: {%s}\n"
    (String.concat ", "
       (List.map
          (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) (json_string v))
          (r.fixed @ extra)))

let bench ~workload:name ~seed ~seconds ~trace =
  match workload name with
  | None ->
    Printf.eprintf "perfbench: unknown workload %S (generate, table3, falsify, corpus)\n" name;
    exit 2
  | Some (setup, run) ->
    let setup_s =
      (* one untimed set-up first, so heap growth and cold caches are
         not charged to the first timed one *)
      setup ();
      median (List.init setup_reps (fun _ -> snd (timed setup)))
    in
    let o = fresh_outcome () in
    if not trace then begin
      let r = run o ~seed ~seconds in
      print_lines (Printf.sprintf "workload %s seed %d (nproc %d)" name seed nproc)
        (r.headline @ [ ("kernel_ms.p50", 1000.0 *. median r.kernels, "ms") ]);
      print_fixed r [];
      print_result o (end_to_end ~setup_s r)
    end
    else begin
      (* the fixed list once, each job paired untraced/traced; the
         traced runs feed the program's own counters and spans *)
      Telemetry.enable ();
      Telemetry.set_span_retention `Aggregate;
      Telemetry.reset ();
      paired := true;
      let r = run o ~seed ~seconds:0.0 in
      paired := false;
      let snap = counters () in
      let det = (Telemetry.snapshot ()).Telemetry.sn_counters in
      let layers = program_layers r snap in
      let probes =
        slim_probe r @ analysis_probe r @ text_probe r @ spec_probe ~seed
      in
      let metrics =
        layers @ probes
        @ [ ("telemetry.overhead_ratio", !traced_s /. !untraced_s, "ratio");
            ("calib.kernel_ms", 1000.0 *. median r.kernels, "ms") ]
      in
      print_lines (Printf.sprintf "workload %s seed %d traced (nproc %d)" name seed nproc)
        metrics;
      print_fixed r (List.map (fun (k, v) -> ("counter." ^ k, string_of_int v)) det);
      print_result o metrics
    end

(* --- self-tests ------------------------------------------------------- *)

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* The checks must catch what they claim to: a testcase missing a step
   fails (a), a known lossy export is told apart from it, and a flipped
   robustness sign fails the re-score. *)
let selftest () =
  let ok = ref true in
  let expect what cond =
    Printf.printf "selftest %-44s %s\n" what (if cond then "ok" else "FAILED");
    if not cond then ok := false
  in
  let e = entry_of "CPUTask" in
  let prog = e.Reg.program () in
  let r = E.run_tool ~budget:600.0 ~seed:1 E.STCG e in
  let tcs = r.Stcg.Run_result.testcases in
  let clean = fresh_outcome () in
  ignore (check_result clean ~id:"clean" prog r);
  expect "unmodified suite passes (a)-(c)" (clean.violations = []);
  (* the last testcase to find a branch, without its final step *)
  let last =
    List.fold_left
      (fun acc (tc : Tc.t) -> if tc.Tc.new_branches <> [] then Some tc else acc)
      None tcs
  in
  (match last with
   | None -> expect "suite has a testcase that found a branch" false
   | Some victim ->
     let cut =
       List.map
         (fun (tc : Tc.t) ->
           if tc.Tc.tc_id = victim.Tc.tc_id then
             { tc with Tc.steps = List.filteri (fun i _ -> i < Tc.length tc - 1) tc.Tc.steps }
           else tc)
         tcs
     in
     let o = fresh_outcome () in
     ignore (check_suite o ~label:"cut" prog cut r.Stcg.Run_result.tracker);
     expect "dropped step fails check (a)"
       (List.exists (fun v -> contains v ": (a) ") o.violations));
  (* fuzz seed 2 case 27, engine seed 2: an input the solver found
     (x0 = 1.80068...) is exported with 6 significant digits, and the
     re-imported suite misses two branches *)
  let m = corpus_model ~seed:2 27 in
  let o = fresh_outcome () in
  ignore (corpus_check o ~seed:2 m (corpus_job (m, 2)));
  expect "lossy export is classified export-lossy"
    (o.violations = [] && o.failures = [ "export-lossy:fuzz2.27.s2" ]);
  let rows = campaign 1 in
  let clean = fresh_outcome () in
  ignore (check_campaign clean ~seed:1 rows);
  expect "unmodified campaign passes the re-score" (clean.violations = []);
  let flipped =
    List.mapi
      (fun i (row : Spec.Falsify.row) ->
        if i = 0 then { row with Spec.Falsify.f_rob = -.row.Spec.Falsify.f_rob } else row)
      rows
  in
  let o = fresh_outcome () in
  ignore (check_campaign o ~seed:1 flipped);
  expect "flipped robustness fails the re-score" (o.violations <> []);
  if not !ok then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and self = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME generate|table3|falsify|corpus");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S seconds to keep the closed loop busy");
      ("--trace", Arg.Set_int trace, "0|1 1 prints the per-layer metrics");
      ("--fuzz-seed", Arg.Set_int corpus_fuzz_seed,
       "N corpus pool: the first cases of this fuzz seed (default 0)");
      ("--selftest", Arg.Set self, " check that the checks catch seeded faults") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 | --selftest";
  if !self then selftest ()
  else bench ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
