(* Facade: [Telemetry.Metrics], [Telemetry.Tracing], [Telemetry.Flight],
   [Telemetry.Snapshot].

   The library sits below every other layer of the repository (it
   depends only on the standard library and Unix), so the reader, the
   dragon core, ext64, robust and the service layer can all record into
   the same process-wide registry. *)

module Metrics = Metrics
module Tracing = Tracing
module Flight = Flight
module Snapshot = Snapshot

let enabled = Metrics.enabled
let set_enabled = Metrics.set_enabled
