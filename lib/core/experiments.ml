type sweep = { degrees : int list; runs : int; base : Config.t }

let paper_sweep = { degrees = [ 3; 4; 5; 6; 7; 8 ]; runs = 10; base = Config.default }

let quick_sweep = { degrees = [ 3; 4; 6 ]; runs = 3; base = Config.quick }

let scale ?runs ?degrees sweep =
  {
    sweep with
    runs = (match runs with Some r -> r | None -> sweep.runs);
    degrees = (match degrees with Some d -> d | None -> sweep.degrees);
  }
