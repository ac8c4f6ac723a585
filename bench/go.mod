// The benchmark is a module of its own so that it builds from its own
// directory; it reaches the engine's internal packages because its
// import path sits under the root module's ("repro/...").
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
