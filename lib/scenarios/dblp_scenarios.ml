(* DBLP scenarios D1–D5 (Tables 4 and 10). *)

open Nested
open Nrab

let ( ==? ) a b = Expr.Cmp (Expr.Eq, a, b)

(* D1: all authors and titles of papers published at SIGMOD.
   Error: the projection feeding the venue filter picks the proceedings'
   long [ptitle] instead of [pbooktitle]; only the latter contains the
   string "SIGMOD" for the missing paper's venue. *)
let d1 : Scenario.t =
  {
    name = "D1";
    family = Scenario.Dblp;
    description = "All authors and titles of papers that are published at SIGMOD";
    operators = "π,σ,⋈,Fᴵ,Fᵀ";
    make =
      (fun ~scale ?seed () ->
        let db = Datagen.Dblp.db ?seed ~scale () in
        let g = Query.Gen.create ~start:50 () in
        let proc =
          Query.project ~id:1 g
            [ ("pkey", Expr.attr "pkey"); ("venue", Expr.attr "ptitle") ]
            (Query.table g "proceedings")
        in
        let joined =
          Query.join ~id:2 g Query.Inner
            (Expr.attr "crossref" ==? Expr.attr "pkey")
            (Query.table g "inproceedings")
            proc
        in
        let query =
          Query.project ~id:6 g
            [ ("author", Expr.attr "name"); ("title", Expr.attr "text") ]
            (Query.select ~id:5 g
               (Expr.Contains (Expr.attr "venue", "SIGMOD"))
               (Query.flatten_tuple ~id:4 g "title"
                  (Query.flatten_inner ~id:3 g "authors" joined)))
        in
        let missing =
          Whynot.Nip.tup
            [ ("author", Whynot.Nip.any); ("title", Whynot.Nip.str Datagen.Dblp.d1_missing_title) ]
        in
        {
          Scenario.question = Whynot.Question.make ~query ~db ~missing;
          alternatives = [ ("proceedings", [ [ "ptitle" ]; [ "pbooktitle" ] ]) ];
          gold = Some [ [ 1 ] ];
        });
  }

(* D2: number of articles per author not named "Dey".
   Error: the query flattens the [bibtex] record (null for >99 % of
   articles) instead of [fulltext]; the count over the nested titles is 0
   for the missing author. *)
let d2 : Scenario.t =
  {
    name = "D2";
    family = Scenario.Dblp;
    description = "Number of articles for authors who do not have \"Dey\" in their name";
    operators = "π,σ,Fᴵ,Fᵀ,Nᴿ,γ";
    make =
      (fun ~scale ?seed () ->
        let db = Datagen.Dblp.db ?seed ~scale () in
        let g = Query.Gen.create ~start:50 () in
        let query =
          Query.agg_tuple ~id:6 g Agg.Count ~over:"titles" ~into:"cnt"
            (Query.nest_rel ~id:5 g [ "content" ] ~into:"titles"
               (Query.project_attrs ~id:4 g [ "name"; "content" ]
                  (Query.flatten_tuple ~id:3 g "bibtex"
                     (Query.select ~id:2 g
                        (Expr.Not (Expr.Contains (Expr.attr "name", "Dey")))
                        (Query.flatten_inner ~id:1 g "authors"
                           (Query.table g "articles"))))))
        in
        let missing =
          Whynot.Nip.tup
            [
              ("name", Whynot.Nip.str Datagen.Dblp.d2_target_author);
              ("cnt", Whynot.Nip.pred Expr.Ge (Value.Int 5));
            ]
        in
        {
          Scenario.question = Whynot.Question.make ~query ~db ~missing;
          alternatives = [ ("articles", [ [ "bibtex" ]; [ "fulltext" ] ]) ];
          gold = Some [ [ 3 ] ];
        });
  }

(* D3: author–paper pairs per booktitle and year.
   Error: the tuple nesting pairs the [author] with the paper; the missing
   person only appears as [editor]. *)
let d3 : Scenario.t =
  {
    name = "D3";
    family = Scenario.Dblp;
    description = "Lists all author-paper-pairs per booktitle and year";
    operators = "π,Fᵀ,Nᵀ,Nᴿ";
    make =
      (fun ~scale ?seed () ->
        let db = Datagen.Dblp.db ?seed ~scale () in
        let g = Query.Gen.create ~start:50 () in
        let query =
          Query.nest_rel ~id:5 g [ "pair" ] ~into:"pairs"
            (Query.project_attrs ~id:4 g [ "booktitle"; "year"; "pair" ]
               (Query.nest_tuple_labeled ~id:3 g
                  [ ("author", "author"); ("ptitle", "ptitle") ]
                  ~into:"pair"
                  (Query.project_attrs ~id:2 g
                     [ "booktitle"; "year"; "author"; "editor"; "ptitle" ]
                     (Query.flatten_tuple ~id:1 g "meta"
                        (Query.table g "entries")))))
        in
        let missing =
          Whynot.Nip.tup
            [
              ("booktitle", Whynot.Nip.str Datagen.Dblp.d3_target_booktitle);
              ("year", Whynot.Nip.int Datagen.Dblp.d3_target_year);
              ( "pairs",
                Whynot.Nip.bag ~star:true
                  [
                    Whynot.Nip.tup
                      [
                        ( "pair",
                          Whynot.Nip.tup
                            [
                              ("author", Whynot.Nip.str Datagen.Dblp.d3_target_person);
                              ("ptitle", Whynot.Nip.any);
                            ] );
                      ];
                  ] );
            ]
        in
        {
          Scenario.question = Whynot.Question.make ~query ~db ~missing;
          alternatives = [ ("entries", [ [ "author" ]; [ "editor" ] ]) ];
          gold = Some [ [ 3 ] ];
        });
  }

(* D4: collection of papers per author who published through ACM after
   2010.  Errors: the tuple flatten exposes the [publisher] label (the
   "ACM" value sits in the [series]), and the year filter says 2015
   instead of 2010. *)
let d4 : Scenario.t =
  {
    name = "D4";
    family = Scenario.Dblp;
    description = "Collection of papers per author having published through ACM after 2010";
    operators = "π,σ,Fᴵ,Fᵀ,⋈,Nᴿ,γ";
    make =
      (fun ~scale ?seed () ->
        let db = Datagen.Dblp.db ?seed ~scale () in
        let g = Query.Gen.create ~start:50 () in
        let query =
          Query.agg_tuple ~id:8 g Agg.Count ~over:"papers" ~into:"cnt"
            (Query.nest_rel ~id:7 g [ "ptitle" ] ~into:"papers"
               (Query.project_attrs ~id:6 g [ "name"; "ptitle" ]
                  (Query.select ~id:5 g
                     (Expr.Cmp (Expr.Ge, Expr.attr "year", Expr.int 2015))
                     (Query.select ~id:4 g
                        (Expr.attr "plabel" ==? Expr.str "ACM")
                        (Query.flatten_tuple ~id:3 g "publisher"
                           (Query.flatten_inner ~id:2 g "authors"
                              (Query.join ~id:1 g Query.Inner
                                 (Expr.attr "pcrossref" ==? Expr.attr "pkey")
                                 (Query.table g "ipubs")
                                 (Query.table g "pubinfo"))))))))
        in
        let missing =
          Whynot.Nip.tup
            [
              ("name", Whynot.Nip.str Datagen.Dblp.d4_target_author);
              ("papers", Whynot.Nip.some_element);
              ("cnt", Whynot.Nip.pred Expr.Ge (Value.Int 1));
            ]
        in
        {
          Scenario.question = Whynot.Question.make ~query ~db ~missing;
          alternatives = [ ("pubinfo", [ [ "publisher" ]; [ "series" ] ]) ];
          gold = Some [ [ 3; 5 ] ];
        });
  }

(* D5: list of homepage URLs per author.
   Error: the projection picks the [url] attribute; DBLP stores the
   homepage in [note] for the missing author. *)
let d5 : Scenario.t =
  {
    name = "D5";
    family = Scenario.Dblp;
    description = "List of (homepage) urls for each author";
    operators = "π,Fᴵ,Fᵀ,Nᴿ";
    make =
      (fun ~scale ?seed () ->
        let db = Datagen.Dblp.db ?seed ~scale () in
        let g = Query.Gen.create ~start:50 () in
        let query =
          Query.nest_rel ~id:4 g [ "homepage" ] ~into:"pages"
            (Query.project ~id:3 g
               [ ("aname", Expr.attr "aname"); ("homepage", Expr.attr "url") ]
               (Query.flatten_inner ~id:2 g "sites"
                  (Query.flatten_tuple ~id:1 g "person"
                     (Query.table g "authors"))))
        in
        let missing =
          Whynot.Nip.tup
            [
              ("aname", Whynot.Nip.str Datagen.Dblp.d5_target_author);
              ( "pages",
                Whynot.Nip.bag ~star:true
                  [ Whynot.Nip.tup [ ("homepage", Whynot.Nip.str Datagen.Dblp.d5_target_url) ] ] );
            ]
        in
        {
          Scenario.question = Whynot.Question.make ~query ~db ~missing;
          alternatives = [ ("authors", [ [ "sites"; "url" ]; [ "sites"; "note" ] ]) ];
          gold = Some [ [ 3 ] ];
        });
  }

let all = [ d1; d2; d3; d4; d5 ]
