package eval

import "fmt"

// RunNamed runs the named control ("" = the first) on m with inputs keyed
// by parameter name, the way the interpreter's RunControl takes them:
// missing inputs get zero values, a record or header input out of its
// declared field order is refused with an error naming the parameter, and
// outputs are deep copies. It is the differential tests' map-keyed entry
// to RunIndexed.
func RunNamed(m *Machine, name string, inputs map[string]Value) (map[string]Value, Signal, error) {
	idx := m.code.ControlIndex(name)
	if idx < 0 {
		return nil, Signal{}, fmt.Errorf("eval: no control %q", name)
	}
	ps := m.code.controls[idx].params
	args := make([]Value, len(ps))
	for i, p := range ps {
		given, ok := inputs[p.name]
		if !ok {
			args[i] = Zero(p.st.T)
			continue
		}
		if msg := FieldOrderMismatch(given, p.st.T); msg != "" {
			return nil, Signal{}, fmt.Errorf("eval: input %s%s; record and header inputs must keep their declared field order", p.name, msg)
		}
		args[i] = Copy(given)
	}
	frame, sig, err := m.RunIndexed(idx, args)
	if err != nil {
		return nil, sig, err
	}
	out := make(map[string]Value, len(ps))
	for i, p := range ps {
		out[p.name] = Copy(frame[i])
	}
	return out, sig, nil
}
