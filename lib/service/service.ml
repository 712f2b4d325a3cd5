(* Facade: [Service.Supervisor], [Service.Breaker]. *)

module Breaker = Breaker
module Supervisor = Supervisor
