// Fixture for the epochkey analyzer: keyed literals of epoch-carrying
// structs must set the epoch field.
package a

type record struct {
	plan  string
	cost  int
	epoch uint64
}

type Entry struct {
	Val   string
	Epoch uint64
}

type plain struct {
	a, b int
}

func goodKeyed(e uint64) record {
	return record{plan: "p", epoch: e}
}

func goodZero() record {
	return record{}
}

func goodPositional() record {
	return record{"p", 3, 1}
}

func goodExported(e uint64) *Entry {
	return &Entry{Val: "v", Epoch: e}
}

func goodPlain() plain {
	return plain{a: 1}
}

func badKeyed() *record {
	return &record{plan: "p", cost: 2} // want "record literal omits the epoch field"
}

func badExported() Entry {
	return Entry{Val: "v"} // want "Entry literal omits the Epoch field"
}

func badInSlice() []record {
	return []record{
		{plan: "a", epoch: 1},
		{plan: "b"}, // want "record literal omits the epoch field"
	}
}
