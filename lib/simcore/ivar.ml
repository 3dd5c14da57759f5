type 'a state = Empty of 'a Proc.waiter list | Full of 'a

type 'a t = { mutable state : 'a state }

let create () = { state = Empty [] }

let fill t v =
  match t.state with
  | Full _ -> invalid_arg "Ivar.fill: already full"
  | Empty waiters ->
    t.state <- Full v;
    List.iter (fun w -> Proc.resume w (Ok v)) (List.rev waiters)

let read t =
  match t.state with
  | Full v -> v
  | Empty _ ->
    Proc.suspend (fun w ->
        match t.state with
        | Full _ -> assert false
        | Empty ws -> t.state <- Empty (w :: ws))

let is_full t = match t.state with Full _ -> true | Empty _ -> false
let peek t = match t.state with Full v -> Some v | Empty _ -> None
