type kind = Safety | Liveness

type 'view t = { name : string; kind : kind; holds : 'view -> bool }

let safety ~name holds = { name; kind = Safety; holds }
let liveness ~name holds = { name; kind = Liveness; holds }

let check props view =
  List.filter (fun p -> p.kind = Safety && not (p.holds view)) props

let safety_holds props view = check props view = []
let map_view f t = { t with holds = (fun view -> t.holds (f view)) }
