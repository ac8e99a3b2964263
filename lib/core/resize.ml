module C = Netlist.Circuit

type report = {
  circuit : C.t;
  iterations : int;
  upsized : (C.gate_id * float) list;
}

(* gates currently over the weak-driver budget *)
let weak_gates ~ratio c =
  let tech = C.tech c in
  let unit_cin =
    (Netlist.Gate.drive tech ~strength:1.0 Netlist.Gate.Inv).Netlist.Gate.cin
  in
  Array.to_list (C.gates c)
  |> List.filter_map (fun (g : C.gate_inst) ->
         let cl = C.load_capacitance c g.C.output in
         if cl > ratio *. unit_cin *. g.C.strength then Some g.C.id
         else None)

let fix_weak_drivers ?(ratio = 20.0) ?(max_iterations = 8) ?(factor = 2.0)
    circuit =
  if factor <= 1.0 then invalid_arg "Resize: factor must exceed 1";
  let n_gates = C.num_gates circuit in
  let strengths =
    Array.map (fun (g : C.gate_inst) -> g.C.strength) (C.gates circuit)
  in
  let rec loop c iter =
    match weak_gates ~ratio c with
    | [] -> (c, iter)
    | weak when iter >= max_iterations -> ignore weak; (c, iter)
    | weak ->
      List.iter (fun gid -> strengths.(gid) <- strengths.(gid) *. factor)
        weak;
      let c' =
        C.with_strengths circuit (fun g -> strengths.(g.C.id))
      in
      loop c' (iter + 1)
  in
  let repaired, iterations = loop circuit 0 in
  let upsized =
    List.filter_map
      (fun gid ->
        let orig = (C.gates circuit).(gid).C.strength in
        if strengths.(gid) <> orig then Some (gid, strengths.(gid))
        else None)
      (List.init n_gates (fun i -> i))
  in
  { circuit = repaired; iterations; upsized }
