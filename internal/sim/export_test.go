package sim

// MemWorkload exposes memWorkload to the external sim_test package.
var MemWorkload = memWorkload
