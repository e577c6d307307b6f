type estimate = {
  value : float;
  confidence : float;
  samples : int;
  last_update : Dsim.Vtime.t option;
}

type cell = { mutable ewma : float; mutable n : int; mutable at : Dsim.Vtime.t }

type t = {
  alpha : float;
  half_life : float;
  latencies : cell Pair_tbl.t;
  bandwidths : cell Pair_tbl.t;
  losses : cell Pair_tbl.t;
}

let create ?(alpha = 0.3) ?(half_life = 30.) () =
  if alpha <= 0. || alpha > 1. then invalid_arg "Netmodel.create: alpha out of (0,1]";
  if half_life <= 0. then invalid_arg "Netmodel.create: half_life must be positive";
  {
    alpha;
    half_life;
    latencies = Pair_tbl.create 64;
    bandwidths = Pair_tbl.create 64;
    losses = Pair_tbl.create 64;
  }

let copy t =
  let deep table =
    let fresh = Pair_tbl.create (Pair_tbl.length table) in
    Pair_tbl.iter (fun k (c : cell) -> Pair_tbl.replace fresh k { c with ewma = c.ewma }) table;
    fresh
  in
  {
    t with
    latencies = deep t.latencies;
    bandwidths = deep t.bandwidths;
    losses = deep t.losses;
  }

(* A cell with [n = 0] is a pre-created blank (see {!link}): every
   reader below treats it exactly like an absent key, so blanks are
   observationally invisible. *)
let blank_cell () = { ewma = 0.; n = 0; at = Dsim.Vtime.zero }

let observe_cell t (c : cell) now x =
  if c.n = 0 then begin
    c.ewma <- x;
    c.n <- 1;
    c.at <- now
  end
  else begin
    c.ewma <- ((1. -. t.alpha) *. c.ewma) +. (t.alpha *. x);
    c.n <- c.n + 1;
    c.at <- now
  end

let cell_of table key =
  match Pair_tbl.find_opt table key with
  | Some c -> c
  | None ->
      let c = blank_cell () in
      Pair_tbl.replace table key c;
      c

let observe t table ~src ~dst now x = observe_cell t (cell_of table (src, dst)) now x

let observe_latency t ~src ~dst now x = observe t t.latencies ~src ~dst now x
let observe_bandwidth t ~src ~dst now x = observe t t.bandwidths ~src ~dst now x

let observe_loss t ~src ~dst now ~delivered =
  observe t t.losses ~src ~dst now (if delivered then 0. else 1.)

type link = { l_latency : cell; l_bandwidth : cell; l_loss : cell }

let link t ~src ~dst =
  let key = (src, dst) in
  {
    l_latency = cell_of t.latencies key;
    l_bandwidth = cell_of t.bandwidths key;
    l_loss = cell_of t.losses key;
  }

let observe_link_latency t l now x = observe_cell t l.l_latency now x
let observe_link_bandwidth t l now x = observe_cell t l.l_bandwidth now x

let observe_link_loss t l now ~delivered =
  observe_cell t l.l_loss now (if delivered then 0. else 1.)

let no_estimate = { value = 0.; confidence = 0.; samples = 0; last_update = None }

let read t table ~src ~dst ~now =
  match Pair_tbl.find_opt table (src, dst) with
  | None -> no_estimate
  | Some c when c.n = 0 -> no_estimate
  | Some c ->
      let age = Float.max 0. (Dsim.Vtime.diff now c.at) in
      let confidence = exp (-.age *. log 2. /. t.half_life) in
      { value = c.ewma; confidence; samples = c.n; last_update = Some c.at }

let latency t ~src ~dst ~now = read t t.latencies ~src ~dst ~now
let bandwidth t ~src ~dst ~now = read t t.bandwidths ~src ~dst ~now
let loss t ~src ~dst ~now = read t t.losses ~src ~dst ~now

(* Reads the three cells directly: a prediction needs no confidence, so
   it skips the [exp] that {!read} computes for one. *)
let predict_path t ~src ~dst ~now:_ =
  let key = (src, dst) in
  match Pair_tbl.find_opt t.latencies key with
  | Some l when l.n > 0 ->
      let bw =
        match Pair_tbl.find_opt t.bandwidths key with
        | Some b when b.n > 0 -> Float.max 1. b.ewma
        | Some _ | None -> 1_048_576.
      in
      let p =
        match Pair_tbl.find_opt t.losses key with
        | Some x when x.n > 0 -> Float.min 1. (Float.max 0. x.ewma)
        | Some _ | None -> 0.
      in
      Some (Linkprop.v ~latency:(Float.max 0. l.ewma) ~bandwidth:bw ~loss:p)
  | Some _ | None -> None

let predict_transfer_time t ~src ~dst ~now ~bytes =
  match predict_path t ~src ~dst ~now with
  | None -> None
  | Some p ->
      let once = Linkprop.transfer_time p ~bytes in
      (* Expected attempts under independent drops: 1 / (1 - loss). *)
      let retries = if p.Linkprop.loss >= 0.999 then 1000. else 1. /. (1. -. p.Linkprop.loss) in
      Some (once *. retries)

let known_pairs t =
  let keys table = Pair_tbl.fold (fun k c acc -> if c.n > 0 then k :: acc else acc) table [] in
  List.sort_uniq compare (keys t.latencies @ keys t.bandwidths @ keys t.losses)

let forget_before t cutoff =
  (* Reset in place rather than remove: a removed key and a blank cell
     are indistinguishable to every reader, and resetting keeps
     outstanding {!link} handles wired to the cell the table holds. *)
  let prune table =
    Pair_tbl.iter
      (fun _ c ->
        if c.n > 0 && Dsim.Vtime.(c.at < cutoff) then begin
          c.ewma <- 0.;
          c.n <- 0;
          c.at <- Dsim.Vtime.zero
        end)
      table
  in
  prune t.latencies;
  prune t.bandwidths;
  prune t.losses

let merge_from dst src ~now =
  let merge_table mine theirs =
    Pair_tbl.iter
      (fun key (c : cell) ->
        if c.n > 0 then
          (* Imports overwrite the existing cell in place (when there is
             one) so [dst]'s link handles stay valid. *)
          let import (d : cell) =
            d.ewma <- c.ewma;
            d.n <- c.n;
            d.at <- c.at
          in
          match Pair_tbl.find_opt mine key with
          | None -> Pair_tbl.replace mine key { ewma = c.ewma; n = c.n; at = c.at }
          | Some existing when existing.n = 0 -> import existing
          | Some existing ->
              let conf (cell : cell) =
                let age = Float.max 0. (Dsim.Vtime.diff now cell.at) in
                exp (-.age *. log 2. /. dst.half_life)
              in
              if conf c > conf existing then import existing)
      theirs
  in
  merge_table dst.latencies src.latencies;
  merge_table dst.bandwidths src.bandwidths;
  merge_table dst.losses src.losses
