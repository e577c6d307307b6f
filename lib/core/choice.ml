type 'a alternative = {
  value : 'a;
  features : (string * float) list;
}

type 'a t = { label : string; alternatives : 'a alternative list }

let alt ?(features = []) value = { value; features }

let make ~label alternatives =
  if String.length label = 0 then invalid_arg "Choice.make: empty label";
  if alternatives = [] then invalid_arg "Choice.make: no alternatives";
  { label; alternatives }

let of_values ~label ?(feature = fun _ -> []) values =
  make ~label (List.map (fun v -> alt ~features:(feature v) v) values)

let arity t = List.length t.alternatives

let nth t i =
  match List.nth_opt t.alternatives i with
  | Some a -> a.value
  | None -> invalid_arg "Choice.nth: index out of range"

let label t = t.label
let feature_matrix t = Array.of_list (List.map (fun a -> a.features) t.alternatives)

type site = {
  site_label : string;
  site_node : int;
  site_occurrence : int;
  site_arity : int;
  site_features : (string * float) list array;
}

let site ~node ~occurrence t =
  {
    site_label = t.label;
    site_node = node;
    site_occurrence = occurrence;
    site_arity = arity t;
    site_features = feature_matrix t;
  }

let feature s ~alt name =
  if alt < 0 || alt >= Array.length s.site_features then None
  else List.assoc_opt name s.site_features.(alt)
