(* Outside-in span recorder. A span is opened around one call into a
   layer's public function or app hook; its parent is whatever span is
   open at that moment (the top of the stack). Spans live in memory
   only: each one is folded into its name's totals when it closes, and
   the totals are read once at the end of the run.

   Self time is a span's duration minus the time its direct children
   cover, so the self times of every span add up exactly to the
   duration of the root spans. While [on] is false, [span] is a plain
   call. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let on = ref false

type totals = { mutable calls : int; mutable total_ns : int; mutable self_ns : int }

let table : (string, totals) Hashtbl.t = Hashtbl.create 32
let root_ns = ref 0
let max_depth = 4096
let stack_name = Array.make max_depth ""
let stack_start = Array.make max_depth 0
let stack_child = Array.make max_depth 0
let depth = ref 0

let totals name =
  match Hashtbl.find_opt table name with
  | Some t -> t
  | None ->
      let t = { calls = 0; total_ns = 0; self_ns = 0 } in
      Hashtbl.replace table name t;
      t

let enter name =
  let d = !depth in
  stack_name.(d) <- name;
  stack_child.(d) <- 0;
  depth := d + 1;
  stack_start.(d) <- now_ns ()

(* Closes the innermost span and returns its duration in ns. *)
let leave () =
  let stop = now_ns () in
  let d = !depth - 1 in
  depth := d;
  let dur = stop - stack_start.(d) in
  let t = totals stack_name.(d) in
  t.calls <- t.calls + 1;
  t.total_ns <- t.total_ns + dur;
  t.self_ns <- t.self_ns + dur - stack_child.(d);
  if d > 0 then stack_child.(d - 1) <- stack_child.(d - 1) + dur else root_ns := !root_ns + dur;
  dur

(* Renames the innermost open span, for a call whose kind is only known
   once it has run. *)
let rename name = if !on && !depth > 0 then stack_name.(!depth - 1) <- name

let span name f =
  if not !on then f ()
  else begin
    enter name;
    match f () with
    | v ->
        ignore (leave ());
        v
    | exception e ->
        ignore (leave ());
        raise e
  end

(* Like [span], but always timed, and hands back the duration. *)
let timed name f =
  if !on then begin
    enter name;
    let v = f () in
    (v, leave ())
  end
  else
    let t0 = now_ns () in
    let v = f () in
    (v, now_ns () - t0)

let calls name = match Hashtbl.find_opt table name with Some t -> t.calls | None -> 0
let self_ms name = match Hashtbl.find_opt table name with Some t -> float_of_int t.self_ns /. 1e6 | None -> 0.
let root_ms () = float_of_int !root_ns /. 1e6

(* A growable buffer of float samples, with nearest-rank percentiles. *)
module Samples = struct
  type t = { mutable data : float array; mutable n : int }

  let create () = { data = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.data then begin
      let bigger = Array.make (2 * t.n) 0. in
      Array.blit t.data 0 bigger 0 t.n;
      t.data <- bigger
    end;
    t.data.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n
  let clear t = t.n <- 0

  let percentile t q =
    if t.n = 0 then 0.
    else begin
      let a = Array.sub t.data 0 t.n in
      Array.sort Float.compare a;
      let rank = int_of_float (Float.ceil (q *. float_of_int t.n)) in
      a.(max 0 (min (t.n - 1) (rank - 1)))
    end

  let sum t =
    let s = ref 0. in
    for i = 0 to t.n - 1 do
      s := !s +. t.data.(i)
    done;
    !s
end

(* Host time of the measured phase cut into fixed units of work (engine
   slices, storms), in ms. A seed runs the same units in the same order
   in every rep, so run.py can compare a unit across reps. *)
module Units = struct
  let ms = Samples.create ()
  let last = ref 0

  (* Where no slice loop cuts the measured phase finely enough, a unit
     also closes every [every] app hooks (0: never). *)
  let every = ref 0
  let hooks = ref 0

  let start () =
    Samples.clear ms;
    hooks := 0;
    last := now_ns ()

  (* Closes the current unit and opens the next. *)
  let mark () =
    let t = now_ns () in
    Samples.add ms (float_of_int (t - !last) /. 1e6);
    last := t

  let hook () =
    if !every > 0 then begin
      incr hooks;
      if !hooks = !every then begin
        hooks := 0;
        mark ()
      end
    end
end
