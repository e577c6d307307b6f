(* The benchmark harness: regenerates every quantity the paper reports
   (E1-E3), every motivating comparison of its §3.1 (E4-E8), the
   steering result its §2 rests on (S1), and the ablations DESIGN.md
   calls out (A1-A5) — followed by Bechamel micro-benchmarks of the
   runtime machinery. Paper-reported values are printed alongside
   measured ones; EXPERIMENTS.md records the comparison. What each
   runtime layer costs is measured by perfbench (its paxos ladder and
   per-layer metrics), not here. *)

let fast = Array.exists (String.equal "--fast") Sys.argv

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let seeds = if fast then [ 42 ] else [ 42; 43; 44 ]

(* ------------------------------------------------------------------ *)
(* E1: code metrics                                                     *)
(* ------------------------------------------------------------------ *)

let e1 () =
  section "E1  Code metrics: baseline vs choice-exposed RandTree (paper S4)";
  match Experiments.Metrics_exp.run () with
  | None -> print_endline "  (sources not found; run from the repository root)"
  | Some c ->
      let row name (m : Metrics.Code_metrics.t) paper_loc paper_cx =
        [
          name;
          Metrics.Report.fint m.loc;
          Metrics.Report.fint m.handlers;
          Metrics.Report.ffloat m.per_handler;
          paper_loc;
          paper_cx;
        ]
      in
      Metrics.Report.print ~title:"code size and handler complexity"
        ~header:[ "variant"; "LoC"; "handlers"; "if-else/handler"; "paper LoC"; "paper if/h" ]
        [
          row "baseline" c.baseline "487" "1.94";
          row "choice-exposed" c.choice "280" "0.28";
        ];
      Printf.printf "  LoC reduction: %.0f%% measured (paper: 43%%)\n" c.loc_reduction_percent;
      (* E1b: the same comparison on a second protocol. *)
      (match Experiments.Metrics_exp.run_gossip () with
      | None -> ()
      | Some g ->
          let short name (m : Metrics.Code_metrics.t) =
            [
              name;
              Metrics.Report.fint m.loc;
              Metrics.Report.fint m.handlers;
              Metrics.Report.ffloat m.per_handler;
            ]
          in
          Metrics.Report.print ~title:"E1b  the same pattern on the gossip pair"
            ~header:[ "variant"; "LoC"; "handlers"; "if-else/handler" ]
            [ short "gossip-baseline" g.baseline; short "gossip-choice" g.choice ];
          Printf.printf "  LoC reduction: %.0f%%\n" g.loc_reduction_percent)

(* ------------------------------------------------------------------ *)
(* E2/E3: RandTree join and rejoin depth                                *)
(* ------------------------------------------------------------------ *)

let e23 () =
  section "E2/E3  RandTree max depth: join, then fail+rejoin a subtree (paper S4)";
  let setups =
    if fast then Experiments.Randtree_exp.paper_setups else Experiments.Randtree_exp.all_setups
  in
  let paper_join = function
    | Experiments.Randtree_exp.Baseline | Experiments.Randtree_exp.Choice_random
    | Experiments.Randtree_exp.Choice_crystalball ->
        "6"
    | Experiments.Randtree_exp.Choice_greedy | Experiments.Randtree_exp.Choice_bandit -> "-"
  in
  let paper_rejoin = function
    | Experiments.Randtree_exp.Baseline | Experiments.Randtree_exp.Choice_random -> "10"
    | Experiments.Randtree_exp.Choice_crystalball -> "9"
    | Experiments.Randtree_exp.Choice_greedy | Experiments.Randtree_exp.Choice_bandit -> "-"
  in
  let rows =
    List.map
      (fun setup ->
        let o = Experiments.Randtree_exp.run_median ~seeds setup in
        [
          Experiments.Randtree_exp.setup_name setup;
          Metrics.Report.fint o.Experiments.Randtree_exp.depth_after_join;
          Metrics.Report.fopt_int o.Experiments.Randtree_exp.depth_after_rejoin;
          paper_join setup;
          paper_rejoin setup;
          Metrics.Report.fint o.Experiments.Randtree_exp.messages;
        ])
      setups
  in
  Metrics.Report.print
    ~title:
      (Printf.sprintf "31 nodes, optimal depth %d (median of %d seed(s))"
         (Experiments.Randtree_exp.optimal_depth ~nodes:31 ~max_children:2)
         (List.length seeds))
    ~header:[ "setup"; "join depth"; "rejoin depth"; "paper join"; "paper rejoin"; "msgs" ]
    rows

(* E3b extension: sustained churn instead of one mass failure. *)
let e3b () =
  section "E3b  Extension: RandTree under continuous churn (kill/restart every 4s)";
  let rows =
    List.map
      (fun setup ->
        let o =
          Experiments.Randtree_exp.run_churn ~seed:(List.hd seeds)
            ~duration:(if fast then 60. else 120.)
            setup
        in
        [
          Experiments.Randtree_exp.setup_name setup;
          Metrics.Report.ffloat o.Experiments.Randtree_exp.mean_depth;
          Metrics.Report.fint o.Experiments.Randtree_exp.worst_depth;
          Metrics.Report.ffloat o.Experiments.Randtree_exp.mean_joined;
        ])
      Experiments.Randtree_exp.paper_setups
  in
  Metrics.Report.print ~title:"sampled every 4s while one node is always failing or rejoining"
    ~header:[ "setup"; "mean depth"; "worst depth"; "mean joined" ]
    rows

(* ------------------------------------------------------------------ *)
(* E4: gossip peer choice                                               *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section "E4  Gossip: peer-selection policies (paper S3.1, BAR Gossip / FlightPath)";
  List.iter
    (fun scenario ->
      let rows =
        List.map
          (fun policy ->
            let o =
              Experiments.Gossip_exp.run ~seed:(List.hd seeds)
                ~waves:(if fast then 3 else 5)
                ~scenario policy
            in
            [
              Experiments.Gossip_exp.policy_name policy;
              Metrics.Report.ffloat o.Experiments.Gossip_exp.mean_coverage_s;
              Metrics.Report.ffloat o.Experiments.Gossip_exp.max_coverage_s;
              Metrics.Report.fint o.Experiments.Gossip_exp.messages;
            ])
          Experiments.Gossip_exp.all_policies
      in
      Metrics.Report.print
        ~title:
          (Printf.sprintf "rumor coverage time, scenario = %s"
             (Experiments.Gossip_exp.scenario_name scenario))
        ~header:[ "policy"; "mean (s)"; "max (s)"; "msgs" ]
        rows)
    [ Experiments.Gossip_exp.Uniform; Experiments.Gossip_exp.Slow_stub ]

(* ------------------------------------------------------------------ *)
(* E5: content distribution block choice                                *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5  Content distribution: block-selection policies (paper S3.1)";
  List.iter
    (fun scenario ->
      let rows =
        List.map
          (fun policy ->
            let o = Experiments.Dissem_exp.run ~seed:(List.hd seeds) ~scenario policy in
            [
              Experiments.Dissem_exp.policy_name policy;
              Printf.sprintf "%d/15" o.Experiments.Dissem_exp.completed;
              Metrics.Report.ffloat o.Experiments.Dissem_exp.mean_completion_s;
              Metrics.Report.ffloat o.Experiments.Dissem_exp.max_completion_s;
              Metrics.Report.fint o.Experiments.Dissem_exp.duplicate_pieces;
            ])
          Experiments.Dissem_exp.all_policies
      in
      Metrics.Report.print
        ~title:
          (Printf.sprintf "64-block file, scenario = %s"
             (Experiments.Dissem_exp.scenario_name scenario))
        ~header:[ "policy"; "done"; "mean (s)"; "max (s)"; "dup pieces" ]
        rows)
    Experiments.Dissem_exp.all_scenarios

(* ------------------------------------------------------------------ *)
(* E6: Paxos proposer choice                                            *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "E6  Consensus: proposer-assignment policies (paper S3.1, Paxos/Mencius)";
  List.iter
    (fun scenario ->
      let rows =
        List.map
          (fun policy ->
            let o =
              Experiments.Paxos_exp.run ~seed:(List.hd seeds)
                ~duration:(if fast then 30. else 60.)
                ~scenario policy
            in
            [
              Experiments.Paxos_exp.policy_name policy;
              Printf.sprintf "%d/%d" o.Experiments.Paxos_exp.committed
                o.Experiments.Paxos_exp.born;
              Metrics.Report.ffloat ~decimals:0 o.Experiments.Paxos_exp.mean_latency_ms;
              Metrics.Report.ffloat ~decimals:0 o.Experiments.Paxos_exp.p99_latency_ms;
              Metrics.Report.fint o.Experiments.Paxos_exp.agreement_violations;
            ])
          Experiments.Paxos_exp.all_policies
      in
      Metrics.Report.print
        ~title:
          (Printf.sprintf "5 replicas over 3 WAN areas, scenario = %s"
             (Experiments.Paxos_exp.scenario_name scenario))
        ~header:[ "policy"; "committed"; "mean (ms)"; "p99 (ms)"; "agreement viol." ]
        rows)
    Experiments.Paxos_exp.all_scenarios

(* ------------------------------------------------------------------ *)
(* E7: DHT routing choice                                               *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "E7  DHT: next-hop routing policies (paper S3.1, 'the node to forward a message to')";
  let rows =
    List.map
      (fun policy ->
        let o =
          Experiments.Dht_exp.run ~seed:(List.hd seeds) ~duration:(if fast then 20. else 40.)
            policy
        in
        [
          Experiments.Dht_exp.policy_name policy;
          Printf.sprintf "%d/%d" o.Experiments.Dht_exp.completed o.Experiments.Dht_exp.issued;
          Metrics.Report.ffloat ~decimals:0 o.Experiments.Dht_exp.mean_latency_ms;
          Metrics.Report.ffloat ~decimals:0 o.Experiments.Dht_exp.p99_latency_ms;
          Metrics.Report.ffloat o.Experiments.Dht_exp.mean_hops;
        ])
      Experiments.Dht_exp.all_policies
  in
  Metrics.Report.print ~title:"32-node Chord ring over a 4-area WAN, random lookups"
    ~header:[ "policy"; "completed"; "mean (ms)"; "p99 (ms)"; "mean hops" ]
    rows

(* ------------------------------------------------------------------ *)
(* E8: replicated KV store read-replica choice                          *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8  Replicated KV store: read-replica choice (paper S3.2, consistency as performance)";
  let rows =
    List.map
      (fun policy ->
        let o =
          Experiments.Kvstore_exp.run ~seed:(List.hd seeds) ~duration:(if fast then 30. else 60.)
            policy
        in
        [
          Experiments.Kvstore_exp.policy_name policy;
          Metrics.Report.fint o.Experiments.Kvstore_exp.reads;
          Metrics.Report.ffloat ~decimals:1 o.Experiments.Kvstore_exp.mean_read_ms;
          Metrics.Report.ffloat ~decimals:1 o.Experiments.Kvstore_exp.p99_read_ms;
          Metrics.Report.ffloat o.Experiments.Kvstore_exp.mean_staleness;
          Metrics.Report.fint o.Experiments.Kvstore_exp.monotonic_violations;
        ])
      Experiments.Kvstore_exp.all_policies
  in
  Metrics.Report.print
    ~title:"5 replicas over 3 WAN areas; every session reads and writes"
    ~header:[ "policy"; "reads"; "mean (ms)"; "p99 (ms)"; "staleness"; "mono viol." ]
    rows

(* ------------------------------------------------------------------ *)
(* S1: execution steering                                               *)
(* ------------------------------------------------------------------ *)

let s1 () =
  section "S1  Execution steering on the buggy lease service (paper S2)";
  let base = Experiments.Steering_exp.run ~with_runtime:false () in
  let steered = Experiments.Steering_exp.run ~with_runtime:true () in
  Metrics.Report.print ~title:"120s of lease traffic, premature-expiry race armed"
    ~header:[ "setup"; "exclusivity violations"; "grants served"; "msgs filtered"; "vetoes" ]
    [
      [
        "no runtime";
        Metrics.Report.fint base.Experiments.Steering_exp.violations;
        Metrics.Report.fint base.Experiments.Steering_exp.grants;
        "0";
        "0";
      ];
      [
        "CrystalBall runtime";
        Metrics.Report.fint steered.Experiments.Steering_exp.violations;
        Metrics.Report.fint steered.Experiments.Steering_exp.grants;
        Metrics.Report.fint steered.Experiments.Steering_exp.filtered;
        Metrics.Report.fint steered.Experiments.Steering_exp.vetoes;
      ];
    ]

(* ------------------------------------------------------------------ *)
(* A1: lookahead horizon ablation                                       *)
(* ------------------------------------------------------------------ *)

let a1 () =
  section "A1  Ablation: lookahead horizon vs rejoin quality (paper S3.4 'fast enough')";
  let module RT = Experiments.Randtree_exp in
  let module CE = RT.Choice_engine in
  let run_with_horizon ~seed horizon =
    let nodes = 31 in
    let eng = CE.create ~seed ~topology:(RT.topology ~seed ~nodes) () in
    if horizon <= 0. then CE.set_resolver eng Core.Resolver.random
    else CE.set_lookahead eng { CE.default_lookahead with horizon; max_events = 600 };
    let d : RT.driver =
      {
        spawn = (fun ?after i -> CE.spawn eng ?after (Proto.Node_id.of_int i));
        kill = (fun i -> CE.kill eng (Proto.Node_id.of_int i));
        restart = (fun ?after i -> CE.restart eng ?after (Proto.Node_id.of_int i));
        run_for = (fun dt -> CE.run_for eng dt);
        max_depth = (fun () -> RT.Choice_shape.max_depth (CE.global_view eng));
        joined_count = (fun () -> RT.Choice_shape.joined (CE.global_view eng));
        subtree_of_root_child =
          (fun () ->
            RT.Choice_shape.largest_root_subtree (CE.global_view eng)
              ~root:(Proto.Node_id.of_int 0));
        messages = (fun () -> (CE.stats eng).messages_delivered);
        forks = (fun () -> (CE.stats eng).lookahead_forks);
      }
    in
    RT.join_phase d ~nodes ~seed;
    let join_depth = d.RT.max_depth () in
    let _victims = RT.rejoin_phase d ~seed in
    (join_depth, d.RT.max_depth (), d.RT.forks ())
  in
  let median xs =
    let sorted = List.sort Int.compare xs in
    List.nth sorted (List.length sorted / 2)
  in
  let rows =
    List.map
      (fun horizon ->
        let runs = List.map (fun seed -> run_with_horizon ~seed horizon) seeds in
        let join = median (List.map (fun (j, _, _) -> j) runs) in
        let rejoin = median (List.map (fun (_, r, _) -> r) runs) in
        let forks = List.fold_left (fun acc (_, _, f) -> acc + f) 0 runs / List.length runs in
        [
          (if horizon <= 0. then "0 (no lookahead)" else Printf.sprintf "%.1fs" horizon);
          Metrics.Report.fint join;
          Metrics.Report.fint rejoin;
          Metrics.Report.fint forks;
        ])
      (if fast then [ 0.; 1.0; 3.0 ] else [ 0.; 0.5; 1.0; 2.0; 3.0; 4.0 ])
  in
  Metrics.Report.print
    ~title:
      (Printf.sprintf "E3 workload, varying prediction horizon (median of %d seed(s))"
         (List.length seeds))
    ~header:[ "horizon"; "join depth"; "rejoin depth"; "forks" ]
    rows

(* ------------------------------------------------------------------ *)
(* A2: model staleness ablation                                         *)
(* ------------------------------------------------------------------ *)

let a2 () =
  section "A2  Ablation: checkpoint staleness vs steering quality (paper S3.3.2)";
  let base = Experiments.Steering_exp.run ~with_runtime:false () in
  let rows =
    List.map
      (fun delay ->
        let o = Experiments.Steering_exp.run ~with_runtime:true ~checkpoint_delay:delay () in
        let prevented =
          base.Experiments.Steering_exp.violations - o.Experiments.Steering_exp.violations
        in
        [
          Printf.sprintf "%.2fs" delay;
          Metrics.Report.fint o.Experiments.Steering_exp.violations;
          Printf.sprintf "%d/%d" (max 0 prevented) base.Experiments.Steering_exp.violations;
          Metrics.Report.fint o.Experiments.Steering_exp.filtered;
        ])
      (if fast then [ 0.05; 0.25 ] else [ 0.01; 0.05; 0.1; 0.15; 0.2; 0.25; 0.3 ])
  in
  Metrics.Report.print
    ~title:
      (Printf.sprintf
         "lease race (un-steered baseline: %d violations); message flight time 0.3s"
         base.Experiments.Steering_exp.violations)
    ~header:[ "staleness"; "violations"; "prevented"; "filtered" ]
    rows

(* ------------------------------------------------------------------ *)
(* A3: cached fast path vs full lookahead                               *)
(* ------------------------------------------------------------------ *)

let a3 () =
  section "A3  Ablation: learned fast path vs full lookahead (paper S3.4)";
  let rows =
    List.map
      (fun policy ->
        let t0 = Unix.gettimeofday () in
        let o =
          Experiments.Gossip_exp.run ~seed:(List.hd seeds)
            ~waves:(if fast then 3 else 5)
            ~scenario:Experiments.Gossip_exp.Slow_stub policy
        in
        let wall = Unix.gettimeofday () -. t0 in
        [
          Experiments.Gossip_exp.policy_name policy;
          Metrics.Report.ffloat o.Experiments.Gossip_exp.mean_coverage_s;
          Metrics.Report.ffloat wall;
          (match o.Experiments.Gossip_exp.cache with
          | Some (hits, misses) -> Printf.sprintf "%d/%d" hits (hits + misses)
          | None -> "-");
        ])
      [
        Experiments.Gossip_exp.Random_peer;
        Experiments.Gossip_exp.Bandit;
        Experiments.Gossip_exp.Crystalball;
        Experiments.Gossip_exp.Hybrid;
      ]
  in
  (* The offline playbook: training cost paid before deployment. *)
  let playbook_row =
    let t0 = Unix.gettimeofday () in
    let o, contexts, forks =
      Experiments.Gossip_exp.run_playbook ~seed:(List.hd seeds)
        ~waves:(if fast then 3 else 5)
        ~episodes:(if fast then 1 else 2)
        ~scenario:Experiments.Gossip_exp.Slow_stub ()
    in
    let wall = Unix.gettimeofday () -. t0 in
    [
      Experiments.Gossip_exp.policy_name o.Experiments.Gossip_exp.policy;
      Metrics.Report.ffloat o.Experiments.Gossip_exp.mean_coverage_s;
      Metrics.Report.ffloat wall;
      Printf.sprintf "%d ctx/%d forks offline" contexts forks;
    ]
  in
  Metrics.Report.print
    ~title:"gossip slow-stub: decision quality vs decision cost (wall-clock of whole run)"
    ~header:[ "resolver"; "mean coverage (s)"; "wall (s)"; "cache hits" ]
    (rows @ [ playbook_row ])

(* ------------------------------------------------------------------ *)
(* A5: value of information                                             *)
(* ------------------------------------------------------------------ *)

let a5 () =
  section "A5  Ablation: lookahead knowledge scope (paper S3.3.2 'lack of global information')";
  let median xs =
    let sorted = List.sort Int.compare xs in
    List.nth sorted (List.length sorted / 2)
  in
  let rows =
    List.map
      (fun hops ->
        let runs = List.map (fun seed -> Experiments.Randtree_exp.run_scoped ~seed ~hops ()) seeds in
        [
          (match hops with None -> "global" | Some h -> Printf.sprintf "%d hops" h);
          Metrics.Report.fint (median (List.map fst runs));
          Metrics.Report.fint (median (List.map snd runs));
        ])
      (if fast then [ Some 1; None ] else [ Some 1; Some 2; Some 4; None ])
  in
  Metrics.Report.print
    ~title:
      (Printf.sprintf
         "E3 workload; prediction objectives see only the deciding node's h-hop tree neighbourhood (median of %d seed(s))"
         (List.length seeds))
    ~header:[ "knowledge"; "join depth"; "rejoin depth" ]
    rows

(* ------------------------------------------------------------------ *)
(* A4: checkpoint overhead                                              *)
(* ------------------------------------------------------------------ *)

let a4 () =
  section "A4  Ablation: checkpoint traffic vs application throughput (paper S3.3.2)";
  let deadline = if fast then 60. else 120. in
  let base =
    Experiments.Overhead_exp.run ~seed:(List.hd seeds) ~deadline ~checkpoint_period:None ()
  in
  let rows =
    [
      "no runtime";
      Metrics.Report.ffloat ~decimals:1 base.Experiments.Overhead_exp.mean_completion_s;
      Metrics.Report.ffloat ~decimals:1 base.Experiments.Overhead_exp.max_completion_s;
      "0";
      "0";
    ]
    :: List.map
         (fun period ->
           let o =
             Experiments.Overhead_exp.run ~seed:(List.hd seeds) ~deadline
               ~checkpoint_period:(Some period) ()
           in
           [
             Printf.sprintf "period %.2fs" period;
             Metrics.Report.ffloat ~decimals:1 o.Experiments.Overhead_exp.mean_completion_s;
             Metrics.Report.ffloat ~decimals:1 o.Experiments.Overhead_exp.max_completion_s;
             Metrics.Report.fint o.Experiments.Overhead_exp.checkpoints;
             Printf.sprintf "%d KB" (o.Experiments.Overhead_exp.checkpoint_bytes / 1024);
           ])
         (if fast then [ 1.0; 0.1 ] else [ 5.0; 1.0; 0.5; 0.2; 0.1; 0.05 ])
  in
  Metrics.Report.print
    ~title:
      "choked-seed swarm with global-knowledge checkpointing; serialized state charged to access links"
    ~header:[ "collection"; "mean done (s)"; "max done (s)"; "checkpoints"; "bytes shipped" ]
    rows

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (Bechamel)                                          *)
(* ------------------------------------------------------------------ *)

let ns_per_run test =
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second (if fast then 0.2 else 0.5)) () in
  let results = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) -> (name, est) :: acc
      | Some [] | None -> (name, Float.nan) :: acc)
    analyzed []

(* One Bechamel test per core runtime mechanism; each prints ns/op. *)
let micro () =
  section "Micro-benchmarks (Bechamel, ns/op)";
  let open Bechamel in
  let heap_test =
    Test.make ~name:"heap push+pop x100"
      (Staged.stage (fun () ->
           let h = Dsim.Heap.create ~cmp:Int.compare in
           for i = 0 to 99 do
             Dsim.Heap.push h (i * 7919 mod 100)
           done;
           while not (Dsim.Heap.is_empty h) do
             ignore (Dsim.Heap.pop h)
           done))
  in
  let rng = Dsim.Rng.create 1 in
  let rng_test =
    Test.make ~name:"rng bits64" (Staged.stage (fun () -> ignore (Dsim.Rng.bits64 rng)))
  in
  let choice =
    Core.Choice.of_values ~label:"bench"
      ~feature:(fun v -> [ ("v", float_of_int v) ])
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  let resolver_test name r =
    Test.make ~name:("resolve " ^ name)
      (Staged.stage (fun () -> ignore (Core.Resolver.apply r rng choice ~node:0 ~occurrence:0)))
  in
  let bandit = Core.Bandit.create () in
  let netmodel =
    let m = Net.Netmodel.create () in
    Net.Netmodel.observe_latency m ~src:0 ~dst:1 Dsim.Vtime.zero 0.01;
    m
  in
  let netmodel_test =
    Test.make ~name:"netmodel predict"
      (Staged.stage (fun () ->
           ignore
             (Net.Netmodel.predict_transfer_time netmodel ~src:0 ~dst:1
                ~now:(Dsim.Vtime.of_seconds 1.) ~bytes:512)))
  in
  (* A Debug logf site with the trace at Debug formats into the ring;
     gated at Info it must skip the formatting, leaving the level check. *)
  let logf_test name min_level =
    let tr = Dsim.Trace.create ~capacity:64 ~min_level () in
    let i = ref 0 in
    Test.make ~name
      (Staged.stage (fun () ->
           incr i;
           Dsim.Trace.logf tr Dsim.Vtime.zero Dsim.Trace.Debug ~component:"bench"
             "event %d on node %d payload %s" !i (!i mod 7) "0123456789abcdef"))
  in
  let tests =
    [
      heap_test;
      rng_test;
      resolver_test "random" Core.Resolver.random;
      resolver_test "greedy" (Core.Resolver.greedy ~feature:"v" ());
      resolver_test "bandit" (Core.Bandit.to_resolver bandit);
      netmodel_test;
      logf_test "logf debug, formatted" Dsim.Trace.Debug;
      logf_test "logf debug, gated" Dsim.Trace.Info;
    ]
  in
  List.iter
    (fun t ->
      List.iter
        (fun (name, ns) -> Printf.printf "  %-24s %12.1f ns/op\n" name ns)
        (ns_per_run t))
    tests

let () =
  Printf.printf
    "Reproduction benches: Yabandeh et al., Simplifying Distributed System Development (HotOS 2009)\n";
  if fast then print_endline "(--fast: single seed, reduced sweeps)";
  e1 ();
  e23 ();
  e3b ();
  e4 ();
  e5 ();
  e6 ();
  e7 ();
  e8 ();
  s1 ();
  a1 ();
  a2 ();
  a3 ();
  a4 ();
  a5 ();
  micro ();
  print_endline "\nAll experiment tables regenerated. See EXPERIMENTS.md for the paper-vs-measured record."
