// The benchmark is a module of its own so that it builds from its own
// directory; the module path sits under repro/ so that it may import
// repro/internal/... (Go checks internal imports by import path).
module repro/benchmark

go 1.24

require repro v0.0.0

replace repro => ../
