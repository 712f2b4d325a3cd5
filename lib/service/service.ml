(* Facade: [Service.Supervisor]. *)

module Supervisor = Supervisor
