"""The dataport: network metadata analysis and system status monitoring
(§2.3), reimplemented as deterministic dataflow.

The paper builds this with Akka actors — one *digital twin* per
physical device tracking its state in real time. The twin **logic**
(battery-adaptive expected-packet schedules, missed-cycle counting,
alarm raising, hierarchical sensor-vs-gateway failure disambiguation)
is what the evaluation exercises, so we reproduce that logic as Spark
transformations over the uplink stream: twin state via aggregations and
window functions (:mod:`repro.dataport.twins`), alarm transitions via
one window over each device's packets and evaluation grid
(:mod:`repro.dataport.alarms`), and the hierarchy via joins
(:mod:`repro.dataport.hierarchy`). An external
watchdog (AppBeat in the paper) checks the dataport's own heartbeat
(:mod:`repro.dataport.watchdog`).
"""
