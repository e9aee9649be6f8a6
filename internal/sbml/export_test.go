package sbml

// FullDoc is exported for the external tests in fuzz_test.go.
const FullDoc = fullDoc
