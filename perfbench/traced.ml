(* A wrapper over any app that times every hook the engine, the
   lookahead and the explorer call: handler guards and bodies,
   [on_timer], [init], each property and objective, the durability log,
   [validate] and [fingerprint]. Behaviour is unchanged — every wrapped
   hook returns exactly what the original returns — so a seed gives the
   same run with or without the wrapper, traced or not. While tracing is
   off, a wrapper tests a flag and calls the original hook directly, so
   untraced runs allocate nothing extra in the wrapper. [init],
   [on_timer] and handler bodies also count towards [Span.Units.hook].

   Decision timing runs even with tracing off, when [decisions] is set:
   a top-level hook (one not nested in another hook, so not inside a
   lookahead fork) that calls [ctx.choose] adds its host time to
   [decide_ms]. For a lookahead resolver that time is the whole fork,
   replay and scoring cost of the decision. *)

let decisions = ref false
let decide_ms = Span.Samples.create ()
let in_hook = ref false

(* Property checks whose view holds a node state that is not physically
   the one the previous check of the same property saw. *)
let props_changed = ref 0

let hook name ctx f =
  if (not !decisions) || !in_hook then (if !Span.on then Span.span name (fun () -> f ctx) else f ctx)
  else begin
    let chose = ref false in
    let ctx =
      { ctx with Proto.Ctx.choose = (fun c -> chose := true; ctx.Proto.Ctx.choose c) }
    in
    in_hook := true;
    match Span.timed name (fun () -> f ctx) with
    | v, ns ->
        in_hook := false;
        if !chose then Span.Samples.add decide_ms (float_of_int ns /. 1e6);
        v
    | exception e ->
        in_hook := false;
        raise e
  end

module Make (App : Proto.App_intf.APP) :
  Proto.App_intf.APP with type state = App.state and type msg = App.msg = struct
  include App

  (* Neither spans nor decisions are recorded. *)
  let quiet () = not (!Span.on || !decisions)
  let init ctx =
    Span.Units.hook ();
    if quiet () then App.init ctx else hook "app.handler" ctx App.init

  let on_timer ctx st id =
    Span.Units.hook ();
    if quiet () then App.on_timer ctx st id else hook "app.handler" ctx (fun ctx -> App.on_timer ctx st id)

  let receive =
    List.map
      (fun (h : (state, msg) Proto.Handler.t) ->
        {
          h with
          Proto.Handler.guard =
            (fun st ~src m ->
              if !Span.on then Span.span "app.guard" (fun () -> h.Proto.Handler.guard st ~src m)
              else h.Proto.Handler.guard st ~src m);
          handle =
            (fun ctx st ~src m ->
              Span.Units.hook ();
              if quiet () then h.Proto.Handler.handle ctx st ~src m
              else hook "app.handler" ctx (fun ctx -> h.Proto.Handler.handle ctx st ~src m));
        })
      App.receive

  let properties =
    List.map
      (fun (p : (state, msg) Proto.View.t Core.Property.t) ->
        let last = ref [] in
        {
          p with
          Core.Property.holds =
            (fun (view : (state, msg) Proto.View.t) ->
              if not !Span.on then p.Core.Property.holds view
              else begin
                let states = List.map snd view.Proto.View.nodes in
                if
                  List.compare_lengths states !last <> 0
                  || not (List.for_all2 ( == ) states !last)
                then incr props_changed;
                last := states;
                Span.span "props" (fun () -> p.Core.Property.holds view)
              end);
        })
      App.properties

  let objectives =
    List.map
      (fun (o : (state, msg) Proto.View.t Core.Objective.t) ->
        {
          o with
          Core.Objective.score =
            (fun v -> if !Span.on then Span.span "objective" (fun () -> o.Core.Objective.score v) else o.Core.Objective.score v);
        })
      App.objectives

  let durable =
    Option.map
      (fun (d : (state, msg) Proto.Durability.t) ->
        {
          d with
          Proto.Durability.log =
            (fun ~prev ~next ->
              if !Span.on then Span.span "durable.log" (fun () -> d.Proto.Durability.log ~prev ~next)
              else d.Proto.Durability.log ~prev ~next);
        })
      App.durable

  let validate = Option.map (fun v m -> if !Span.on then Span.span "validate" (fun () -> v m) else v m) App.validate

  let fingerprint =
    Option.map (fun f st -> if !Span.on then Span.span "fingerprint" (fun () -> f st) else f st) App.fingerprint
end

(* The resolver record, timed per call. *)
let resolver (r : Core.Resolver.t) =
  {
    r with
    Core.Resolver.choose =
      (fun rng site ->
        if !Span.on then Span.span "resolver" (fun () -> r.Core.Resolver.choose rng site)
        else r.Core.Resolver.choose rng site);
  }
