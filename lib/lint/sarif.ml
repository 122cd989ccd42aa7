open Tdfa_ir
open Tdfa_obs.Json

let version = "1.0.0"

let level_of_severity = function
  | Lint.Error -> "error"
  | Lint.Warn -> "warning"
  | Lint.Info -> "note"

(* ------------------------------------------------------------------ *)
(* SARIF                                                                *)
(* ------------------------------------------------------------------ *)

let rule_json (r : Lint.rule) =
  Obj
    [
      ("id", Str r.Lint.id);
      ("shortDescription", Obj [ ("text", Str r.Lint.summary) ]);
      ( "defaultConfiguration",
        Obj [ ("level", Str (level_of_severity r.Lint.default_severity)) ] );
    ]

let result_json ~rules uri (f : Lint.finding) =
  let rule_index =
    let rec go i = function
      | [] -> None
      | (r : Lint.rule) :: rest ->
        if r.Lint.id = f.Lint.rule_id then Some i else go (i + 1) rest
    in
    go 0 rules
  in
  let logical =
    let name =
      match (f.Lint.label, f.Lint.index) with
      | Some l, Some i ->
        Printf.sprintf "%s/%s/%d" f.Lint.func_name (Label.to_string l) i
      | Some l, None ->
        Printf.sprintf "%s/%s" f.Lint.func_name (Label.to_string l)
      | None, _ -> f.Lint.func_name
    in
    Obj [ ("fullyQualifiedName", Str name); ("kind", Str "function") ]
  in
  let location =
    match uri with
    | Some uri ->
      Obj
        [
          ( "physicalLocation",
            Obj
              [
                ("artifactLocation", Obj [ ("uri", Str uri) ]);
                ("region", Obj [ ("startLine", Int 1) ]);
              ] );
          ("logicalLocations", List [ logical ]);
        ]
    | None -> Obj [ ("logicalLocations", List [ logical ]) ]
  in
  let base =
    [ ("ruleId", Str f.Lint.rule_id) ]
    @ (match rule_index with
       | Some i -> [ ("ruleIndex", Int i) ]
       | None -> [])
    @ [
        ("level", Str (level_of_severity f.Lint.severity));
        ("message", Obj [ ("text", Str f.Lint.message) ]);
        ("locations", List [ location ]);
      ]
    @
    match f.Lint.hint with
    | Some h -> [ ("properties", Obj [ ("hint", Str h) ]) ]
    | None -> []
  in
  Obj base

let render ~rules inputs =
  let results =
    List.concat_map
      (fun (uri, findings) -> List.map (result_json ~rules uri) findings)
      inputs
  in
  let log =
    Obj
      [
        ("$schema", Str "https://json.schemastore.org/sarif-2.1.0.json");
        ("version", Str "2.1.0");
        ( "runs",
          List
            [
              Obj
                [
                  ( "tool",
                    Obj
                      [
                        ( "driver",
                          Obj
                            [
                              ("name", Str "tdfa-lint");
                              ("version", Str version);
                              ( "informationUri",
                                Str
                                  "https://example.org/tdfa/lint" );
                              ("rules", List (List.map rule_json rules));
                            ] );
                      ] );
                  ("results", List results);
                ];
            ] );
      ]
  in
  to_string_indented log ^ "\n"
