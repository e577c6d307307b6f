(* One rep of one workload in a fresh process, or the layer ladder.

     main.exe --workload NAME --seed N [--trace] [--decisions]
     main.exe --ladder SECONDS --seed N

   Prints one JSON object on its last line. Run it through run.py,
   which builds it, repeats reps and aggregates them. *)

let usage () =
  prerr_endline "usage: main.exe --workload NAME --seed N [--trace] [--decisions] | --ladder SECONDS --seed N";
  exit 2

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let num x = if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x else Printf.sprintf "%.9g" x
let nums kvs = json_obj (List.map (fun (k, v) -> (k, num v)) kvs)

(* The highest of these percentiles that leaves at least ten samples
   beyond it. *)
let tail_q n =
  List.find_opt (fun q -> float_of_int n *. (1. -. q) >= 10.) [ 0.999; 0.99; 0.9; 0.5 ]
  |> Option.value ~default:0.5

let layer_metrics (o : Workloads.outcome) ~wall_s =
  let ms = Span.self_ms and calls name = float_of_int (Span.calls name) in
  let count name = Option.value ~default:0. (List.assoc_opt name o.counts) in
  let ev = Workloads.Slices.per_event_us in
  let props = calls "props" in
  [
    ("engine.events", count "engine.events");
    ("engine.self_ms", ms "engine");
    ("engine.event_p50_us", Span.Samples.percentile ev 0.5);
    ("engine.event_tail_us", Span.Samples.percentile ev (tail_q (Span.Samples.count ev)));
    ("engine.growth", Workloads.Slices.growth ());
    ("engine.forks", count "engine.forks");
    ("engine.fork_us", Span.Samples.percentile Workloads.fork_us 0.5);
    ("engine.fork_ms", ms "engine.fork");
    ("props.calls", props);
    ("props.ms", ms "props");
    ("props.changed_share", if props = 0. then 0. else float_of_int !Traced.props_changed /. props);
    ("objective.calls", calls "objective");
    ("objective.ms", ms "objective");
    ("resolver.calls", calls "resolver");
    ("resolver.ms", ms "resolver");
    ("app.handler_calls", calls "app.handler");
    ("app.handler_ms", ms "app.handler");
    ("app.guard_ms", ms "app.guard");
    ("durable.log_calls", calls "durable.log");
    ("durable.log_ms", ms "durable.log");
    ("validate.calls", calls "validate");
    ("validate.ms", ms "validate");
    ("fingerprint.calls", calls "fingerprint");
    ("fingerprint.ms", ms "fingerprint");
    ("explore.ms", ms "explore");
    ("checkpoint.ms", ms "checkpoint");
    ("steer.ms", ms "steer");
    ("trace.wall_s", wall_s);
    ("trace.untimed_ms", (wall_s *. 1000.) -. Span.root_ms ());
  ]
  @ List.filter (fun (k, _) -> k <> "engine.events" && k <> "engine.forks") o.counts
  @ List.map
      (fun k -> (k, count k))
      (List.filter (fun k -> not (List.mem_assoc k o.counts)) Workloads.runtime_counts)

(* Set-up time is the mean over a batch of set-ups, timed as a whole
   after the measured phase (so they leave [top_heap_words] alone):
   at least [setups_min], and on until [setups_budget_s] host seconds. *)
let setups_min = 5
let setups_budget_s = 0.25

let setup_s ~(w : Workloads.t) ~seed =
  let t0 = Span.now_ns () in
  let rec go n =
    let elapsed = float_of_int (Span.now_ns () - t0) /. 1e9 in
    if n >= setups_min && elapsed >= setups_budget_s then elapsed /. float_of_int n
    else begin
      let (_ : unit -> Workloads.outcome) = Sys.opaque_identity (w.prepare ~trace:false ~seed) in
      go (n + 1)
    end
  in
  go 0

let rep ~(w : Workloads.t) ~seed ~trace ~decisions =
  Traced.decisions := decisions && w.hook_decisions;
  let run = w.prepare ~trace ~seed in
  Span.Samples.clear Traced.decide_ms;
  Span.on := trace;
  let words0 = Gc.minor_words () in
  Span.Units.start ();
  let t0 = Span.now_ns () in
  let o = run () in
  let wall_s = float_of_int (Span.now_ns () - t0) /. 1e9 in
  Span.Units.mark ();
  let alloc_mw = (Gc.minor_words () -. words0) /. 1e6 in
  let heap_peak_mb = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 in
  Span.on := false;
  Traced.decisions := false;
  let setup_s = setup_s ~w ~seed in
  let d = Traced.decide_ms in
  let n = Span.Samples.count d in
  let u = Span.Units.ms in
  let fields =
    [
      ("workload", Printf.sprintf "%S" w.name);
      ("seed", string_of_int seed);
      ("trace", if trace then "1" else "0");
      ("digest", Printf.sprintf "%S" (Digest.to_hex (Digest.string o.digest)));
      ("attempted", string_of_int o.attempted);
      ("failed", string_of_int o.failed);
      ("setup_s", num setup_s);
      ("wall_s", num wall_s);
      ("alloc_mw", num alloc_mw);
      ("heap_peak_mb", num heap_peak_mb);
      ("units_ms", "[" ^ String.concat ", " (List.init (Span.Samples.count u) (fun i -> num u.Span.Samples.data.(i))) ^ "]");
      ("sim", nums o.sim);
    ]
    @ (if trace then [ ("layers", nums (layer_metrics o ~wall_s)) ] else [])
    @
    if decisions then
      [
        ( "decide",
          nums
            [
              ("decide.count", float_of_int n);
              ("decide.p50_ms", Span.Samples.percentile d 0.5);
              ("decide.tail_ms", Span.Samples.percentile d (tail_q n));
            ] );
      ]
    else []
  in
  print_endline (json_obj fields)

let () =
  let workload = ref "" and seed = ref 0 and trace = ref false and decisions = ref false in
  let ladder = ref None in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--trace", Arg.Set trace, " traced run");
      ("--decisions", Arg.Set decisions, " time runtime decisions");
      ("--ladder", Arg.Float (fun s -> ladder := Some s), "SECONDS");
    ]
    (fun _ -> usage ())
    "perfbench rep";
  match !ladder with
  | Some budget_s ->
      let reps, rungs = Ladder.run ~seed:!seed ~duration:15. ~budget_s ~min_reps:3 in
      print_endline (json_obj [ ("reps", string_of_int reps); ("layers", nums rungs) ])
  | None -> (
      match List.find_opt (fun (w : Workloads.t) -> w.name = !workload) Workloads.all with
      | Some w -> rep ~w ~seed:!seed ~trace:!trace ~decisions:!decisions
      | None -> usage ())
