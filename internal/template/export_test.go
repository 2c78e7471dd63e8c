package template

// ChainOwners exposes the chain-walk oracle to the external test
// package (FuzzTemplateFree).
func ChainOwners(m *Model, name string, i []int) ([]int, error) { return m.chainOwners(name, i) }
