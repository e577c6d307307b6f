(* The layer ladder on paxos5-steady: one fixed run per rung, each rung
   adding one layer to the rung below. Rungs run in paired, interleaved
   reps (the order flips every rep), and a rung's cost is the median of
   its per-rep difference to the rung below, in host ms. *)

let rungs = [| "bare"; "props"; "fd"; "durable"; "validate"; "obs"; "reliable"; "overload"; "clocks" |]

module Rung (App : Proto.App_intf.APP) = struct
  module E = Engine.Sim.Make (App)

  let time ~seed ~duration k =
    let topology =
      Net.Topology.uniform ~n:5 (Net.Linkprop.v ~latency:0.02 ~bandwidth:1_000_000. ~loss:0.)
    in
    let eng = E.create ~seed ~jitter:0. ~check_properties:(k >= 1) ~topology () in
    Dsim.Trace.set_min_level (E.trace eng) Dsim.Trace.Info;
    E.set_fd_enabled eng (k >= 2);
    E.set_resolver eng Apps.Paxos.self_resolver;
    if k >= 5 then E.set_obs eng (Some (Obs.Sink.create ()));
    if k >= 6 then E.enable_reliable eng;
    if k >= 7 then E.set_overload eng;
    for i = 0 to 4 do
      E.spawn eng (Proto.Node_id.of_int i);
      if k >= 8 then E.set_clock_rate eng (Proto.Node_id.of_int i) ~rate:1.
    done;
    let t0 = Span.now_ns () in
    E.run_for eng duration;
    Span.now_ns () - t0
end

module Bare = Rung (struct
  include Workloads.Paxos_app

  let durable = None
  let validate = None
end)

module Durable = Rung (struct
  include Workloads.Paxos_app

  let validate = None
end)

module Full = Rung (Workloads.Paxos_app)

let time ~seed ~duration k =
  if k <= 2 then Bare.time ~seed ~duration k
  else if k = 3 then Durable.time ~seed ~duration k
  else Full.time ~seed ~duration k

(* Runs reps until [budget_s] host seconds have passed (at least
   [min_reps]); returns each rung's added ms, rungs 1 and up. *)
let run ~seed ~duration ~budget_s ~min_reps =
  let n = Array.length rungs in
  let diffs = Array.init n (fun _ -> Span.Samples.create ()) in
  let start = Span.now_ns () in
  let rep = ref 0 in
  while !rep < min_reps || float_of_int (Span.now_ns () - start) /. 1e9 < budget_s do
    let t = Array.make n 0 in
    let order = List.init n (fun i -> if !rep mod 2 = 0 then i else n - 1 - i) in
    List.iter (fun k -> t.(k) <- time ~seed ~duration k) order;
    for k = 1 to n - 1 do
      Span.Samples.add diffs.(k) (float_of_int (t.(k) - t.(k - 1)) /. 1e6)
    done;
    incr rep
  done;
  ( !rep,
    List.init (n - 1) (fun i ->
        ("ladder." ^ rungs.(i + 1) ^ "_ms", Span.Samples.percentile diffs.(i + 1) 0.5)) )
