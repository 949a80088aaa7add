package dataio

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/data"
)

// ParseJSON parses a dataset previously written by EncodeJSON / dpgen from
// bytes already in memory, in one pass and without first copying them. blob
// must hold exactly one dataset: anything but whitespace after it is an
// error, so two concatenated datasets are refused rather than silently cut
// to the first.
//
// The grammar is encoding/json's decoding into JSONDataset, written out for
// that one shape (DESIGN.md "Bulk jobs" has it in full): a key selects a
// member by exact match, else by bytes.EqualFold; null leaves a member
// empty; strings unquote as encoding/json unquotes them; gold takes
// strconv.ParseInt's grammar; values under keys it does not know, and
// seed_knowledge and gold_text, are validated and dropped; nesting deeper
// than 10,000 is refused. Its one difference: an object holding a key
// twice, or two keys that select one member, is refused, where
// encoding/json would merge the second value into the first.
func ParseJSON(blob []byte) (*data.Dataset, error) {
	// A dataset's slabs start at 16 elements and double up to 1,024.
	d := decoder{blob: blob, intern: map[string]string{},
		fields: make([]data.Field, 0, 16), cands: make([]string, 0, 16)}
	ds, err := d.dataset()
	if err != nil {
		return nil, fmt.Errorf("dataio: decoding dataset: %w", err)
	}
	return ds, nil
}

// ParsePredict parses the body of a predict request,
// {"adapter": KEY, "instance": {...}}, from bytes already in memory. The
// instance is read as ParseJSON reads one, over JSONInstance's members but
// gold and gold_text, which are unknown keys here (validated and dropped),
// and comes back with Gold -1: a predict carries no label. The body object
// is level 1 of the nesting limit, the instance level 2. An absent or null
// instance is the empty one, as encoding/json leaves it; a duplicate key and
// anything but whitespace after the body are refused.
//
// One instance shares nothing, so nothing is interned and its lists are cut
// to size; the scratch buffers come from a pool.
func ParsePredict(blob []byte) (adapter string, in *data.Instance, err error) {
	d := scratch.Get().(*decoder)
	defer d.release()
	d.blob = blob
	in = &data.Instance{Gold: -1}
	d.ws()
	err = d.object("a predict body", predictKeys, 1, func(member int) (err error) {
		switch member {
		case 0:
			var s []byte
			s, err = d.text()
			adapter = string(s)
		case 1:
			err = d.instance(in, wireKeys, 2)
		}
		return err
	})
	if d.ws(); err == nil && d.off != len(d.blob) {
		err = d.errorf("data after the predict body")
	}
	if err != nil {
		return "", nil, fmt.Errorf("dataio: decoding predict body: %w", err)
	}
	return adapter, in, nil
}

// maxDepth is encoding/json's nesting limit; the outermost object is level 1.
const maxDepth = 10000

// maxIntern is the longest string a decode interns.
const maxIntern = 64

// The members of the object shapes, as JSONDataset, JSONInstance, data.Field
// and a predict body name them; a predict's instance has JSONInstance's
// members up to gold.
var (
	datasetKeys  = []string{"name", "task", "seed_knowledge", "train", "test"}
	instanceKeys = []string{"id", "fields", "target", "candidates", "meta", "gold", "gold_text"}
	wireKeys     = instanceKeys[:5]
	fieldKeys    = []string{"entity", "name", "value"}
	predictKeys  = []string{"adapter", "instance"}
)

// scratch holds ParsePredict's decoders between calls.
var scratch = sync.Pool{New: func() any { return new(decoder) }}

// maxPooled is the longest body whose decoder goes back to the pool: every
// scratch buffer grows with the body it read, so one outsized body does not
// pin its buffers.
const maxPooled = 64 << 10

// release returns a ParsePredict decoder to the pool with its scratch
// buffers emptied and nothing else: no slab (the result owns it), no
// interned string, no key set.
func (d *decoder) release() {
	if len(d.blob) > maxPooled {
		return
	}
	clear(d.row)
	clear(d.words)
	*d = decoder{buf: d.buf[:0], row: d.row[:0], words: d.words[:0],
		chars: d.chars[:0], spans: d.spans[:0], open: d.open[:0]}
	scratch.Put(d)
}

// decoder is one ParseJSON or ParsePredict call. Every cache it holds lives
// as long as the call: interned strings and the slabs instances, fields and
// candidates are cut from. Only ParsePredict's scratch buffers outlive it,
// in the pool.
type decoder struct {
	blob []byte
	off  int
	buf  []byte // the last string that needed unquoting

	intern map[string]string // short strings (names, targets, candidates, meta), one copy each; nil: intern nothing
	recent [64]string        // the last of them seen in each slot, looked up before intern
	insts  []data.Instance
	fields []data.Field
	cands  []string
	row    []data.Field // one instance's fields as they are read
	words  []string     // one instance's candidates as they are read
	chars  []byte       // one instance's ID and field values, back to back
	spans  []span       // where each of them lies in chars

	objects int                // serials handed to objects with keys outside their shape
	keys    map[objectKey]bool // those objects' keys, for the duplicate check
	open    []int              // skip's open containers: 0 an array, else an object's serial
}

// span is a string of one instance in decoder.chars: its ID (field -1) or
// the value of its field'th field.
type span struct{ field, start, end int }

type objectKey struct {
	object int
	key    string
}

func (d *decoder) dataset() (*data.Dataset, error) {
	ds := &data.Dataset{}
	d.ws()
	err := d.object("a dataset object", datasetKeys, 1, func(member int) (err error) {
		var s []byte
		switch member {
		case 0:
			s, err = d.text()
			ds.Name = string(s)
		case 1:
			s, err = d.text()
			ds.Task = string(s)
		case 2:
			_, err = d.text()
		case 3:
			ds.Train, err = d.instances("train")
		case 4:
			ds.Test, err = d.instances("test")
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if d.ws(); d.off != len(d.blob) {
		return nil, d.errorf("data after the dataset")
	}
	return ds, nil
}

// instances reads the train or test list (level 2) and checks that each
// gold indexes its instance's candidates; a null instance has no
// candidates, so it fails the check.
func (d *decoder) instances(split string) ([]*data.Instance, error) {
	out := []*data.Instance{}
	null, err := d.list("a list of instances", func() error {
		if len(d.insts) == 0 {
			d.insts = make([]data.Instance, 64)
		}
		in := &d.insts[0]
		d.insts = d.insts[1:]
		if err := d.instance(in, instanceKeys, 3); err != nil {
			return err
		}
		if in.Gold < 0 || in.Gold >= len(in.Candidates) {
			return fmt.Errorf("%s instance %q: gold %d out of range (%d candidates)", split, in.ID, in.Gold, len(in.Candidates))
		}
		out = append(out, in)
		return nil
	})
	if null || err != nil {
		return nil, err
	}
	return out, nil
}

// instance reads one instance object into in: the members of names, a
// prefix of instanceKeys, the object at level depth (3 in a dataset, 2 in a
// predict body).
func (d *decoder) instance(in *data.Instance, names []string, depth int) error {
	d.chars, d.spans = d.chars[:0], d.spans[:0]
	err := d.object("an instance object", names, depth, func(member int) (err error) {
		var s []byte
		switch member {
		case 0:
			s, err = d.text()
			d.hold(-1, s)
		case 1:
			in.Fields, err = d.fieldList(depth + 2)
		case 2:
			s, err = d.text()
			in.Target = d.interned(s)
		case 3:
			in.Candidates, err = d.candidates()
		case 4:
			in.Meta, err = d.meta()
		case 5:
			in.Gold, err = d.gold()
		case 6:
			_, err = d.text()
		}
		return err
	})
	if err != nil {
		return err
	}
	if len(d.spans) > 0 {
		chars := string(d.chars)
		for _, sp := range d.spans {
			if sp.field < 0 {
				in.ID = chars[sp.start:sp.end]
			} else {
				in.Fields[sp.field].Value = chars[sp.start:sp.end]
			}
		}
	}
	return nil
}

// fieldList reads an instance's fields (level 4 in a dataset), each field an
// object at level depth.
func (d *decoder) fieldList(depth int) ([]data.Field, error) {
	d.row = d.row[:0]
	null, err := d.list("a list of fields", func() error {
		var f data.Field
		err := d.object("a field object", fieldKeys, depth, func(member int) (err error) {
			var s []byte
			switch member {
			case 0:
				s, err = d.text()
				f.Entity = d.interned(s)
			case 1:
				s, err = d.text()
				f.Name = d.interned(s)
			case 2:
				s, err = d.text()
				d.hold(len(d.row), s)
			}
			return err
		})
		d.row = append(d.row, f)
		return err
	})
	if null || err != nil {
		return nil, err
	}
	return cut(&d.fields, d.row), nil
}

// candidates reads an instance's answer list (level 4).
func (d *decoder) candidates() ([]string, error) {
	d.words = d.words[:0]
	null, err := d.list("a list of candidates", func() error {
		s, err := d.text()
		d.words = append(d.words, d.interned(s))
		return err
	})
	if null || err != nil {
		return nil, err
	}
	return cut(&d.cands, d.words), nil
}

// object reads an object of one of the three shapes, or null, which leaves
// every member as it was, calling read with the index in names of each
// member a key selects. It refuses a member selected twice and a key
// outside the shape repeated, and validates and drops the value of such a
// key as one nested at level depth.
func (d *decoder) object(what string, names []string, depth int, read func(member int) error) error {
	if d.null() {
		return nil
	}
	if d.peek() != '{' {
		return d.mismatch(what)
	}
	var seen uint8
	serial := 0 // the object's, once it has a key outside the shape
	more, err := d.openContainer()
	for err == nil && more {
		var k []byte
		if k, err = d.key(); err != nil {
			break
		}
		switch i := member(k, names); {
		case i >= 0 && seen&(1<<i) != 0:
			err = d.errorf("duplicate key %q", k)
		case i >= 0:
			seen |= 1 << i
			err = read(i)
		default:
			if serial == 0 {
				d.objects++
				serial = d.objects
			}
			if err = d.unique(serial, k); err == nil {
				err = d.skip(depth)
			}
		}
		if err == nil {
			more, err = d.next('}')
		}
	}
	return err
}

// list reads a list, or null, calling read for each element, and reports
// whether it read null.
func (d *decoder) list(what string, read func() error) (null bool, err error) {
	if d.null() {
		return true, nil
	}
	if d.peek() != '[' {
		return false, d.mismatch(what)
	}
	more, err := d.openContainer()
	for err == nil && more {
		if err = read(); err == nil {
			more, err = d.next(']')
		}
	}
	return false, err
}

// meta reads an instance's string map (level 4).
func (d *decoder) meta() (map[string]string, error) {
	if d.null() {
		return nil, nil
	}
	if d.peek() != '{' {
		return nil, d.mismatch("a meta object")
	}
	m := map[string]string{}
	more, err := d.openContainer()
	for err == nil && more {
		var k, v []byte
		if k, err = d.key(); err != nil {
			break
		}
		key := d.interned(k)
		if _, dup := m[key]; dup {
			return nil, d.errorf("duplicate key %q", key)
		}
		if v, err = d.text(); err == nil {
			m[key] = d.interned(v)
			more, err = d.next('}')
		}
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// gold reads an instance's gold index: null (0), or an integer as
// strconv.ParseInt reads it; a fraction, an exponent or an overflow is
// refused.
func (d *decoder) gold() (int, error) {
	if d.null() {
		return 0, nil
	}
	b, i := d.blob, d.off
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
	default:
		return 0, d.mismatch("an integer gold")
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, d.errorf("gold is not an integer")
	}
	n, err := strconv.ParseInt(string(b[d.off:i]), 10, 64)
	if err != nil || int64(int(n)) != n {
		return 0, d.errorf("gold %s does not fit an int", b[d.off:i])
	}
	d.off = i
	return int(n), nil
}

// hold keeps s, the current instance's ID (field -1) or the value of its
// field'th field, until the instance ends: its strings are then made as one.
func (d *decoder) hold(field int, s []byte) {
	if len(s) > 0 {
		d.spans = append(d.spans, span{field, len(d.chars), len(d.chars) + len(s)})
		d.chars = append(d.chars, s...)
	}
}

// cut copies xs into the slab and returns the copy, its capacity capped
// so that an append to it cannot reach the next owner's elements. A full
// slab is followed by one twice its size, up to 1,024 elements, or xs's; the
// first slab of a decode that starts with none is cut to xs.
func cut[T any](slab *[]T, xs []T) []T {
	if len(xs) == 0 {
		return []T{}
	}
	if len(xs) > cap(*slab)-len(*slab) {
		*slab = make([]T, 0, max(len(xs), min(2*cap(*slab), 1024)))
	}
	n := len(*slab)
	*slab = append(*slab, xs...)
	return (*slab)[n:len(*slab):len(*slab)]
}

// member returns which of names key selects: an exact match first, else a
// case-folded one (bytes.EqualFold, encoding/json's rule), else -1.
func member(key []byte, names []string) int {
	for i, n := range names {
		if string(key) == n {
			return i
		}
	}
	for i, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return i
		}
	}
	return -1
}

// unique refuses a key the object with this serial already holds.
func (d *decoder) unique(obj int, key []byte) error {
	k := objectKey{obj, string(key)}
	if d.keys[k] {
		return d.errorf("duplicate key %q", key)
	}
	if d.keys == nil {
		d.keys = map[objectKey]bool{}
	}
	d.keys[k] = true
	return nil
}

// interned returns s as a string, one copy per distinct short string of a
// decode that interns.
func (d *decoder) interned(s []byte) string {
	if d.intern == nil || len(s) == 0 || len(s) > maxIntern {
		return string(s)
	}
	recent := &d.recent[(len(s)+7*int(s[0])+31*int(s[len(s)-1]))%len(d.recent)]
	if *recent == string(s) {
		return *recent
	}
	v, ok := d.intern[string(s)]
	if !ok {
		v = string(s)
		d.intern[v] = v
	}
	*recent = v
	return v
}

// skip validates the value at d.off, nested in a container at level depth,
// and discards it. It walks with a stack, not recursion, so the depth limit
// is the only bound on nesting.
func (d *decoder) skip(depth int) error {
	open := d.open[:0]
	defer func() { d.open = open[:0] }()
	for {
		d.ws()
		// A value. A container that opens here pushes and goes on to its
		// first member; one that is empty, or a scalar, falls through.
		switch c := d.peek(); {
		case c == '[' || c == '{':
			if depth+len(open)+1 > maxDepth {
				return d.errorf("nesting deeper than %d", maxDepth)
			}
			d.off++
			d.ws()
			if c == '[' {
				if d.peek() != ']' {
					open = append(open, 0)
					continue
				}
			} else {
				d.objects++
				if d.peek() != '}' {
					open = append(open, d.objects)
					if err := d.skipKey(d.objects); err != nil {
						return err
					}
					continue
				}
			}
			d.off++
		case c == '"':
			if _, err := d.str(); err != nil {
				return err
			}
		case c == 't' || c == 'f' || c == 'n':
			if !d.literal("true") && !d.literal("false") && !d.literal("null") {
				return d.mismatch("true, false or null")
			}
		case c == '-' || '0' <= c && c <= '9':
			if err := d.number(); err != nil {
				return err
			}
		default:
			return d.mismatch("a value")
		}
		// After a value: close the containers that end here, then stop or
		// go on to the next member.
		for {
			if len(open) == 0 {
				return nil
			}
			top := open[len(open)-1]
			closer := byte(']')
			if top != 0 {
				closer = '}'
			}
			more, err := d.next(closer)
			if err != nil {
				return err
			}
			if more {
				if top != 0 {
					if err := d.skipKey(top); err != nil {
						return err
					}
				}
				break
			}
			open = open[:len(open)-1]
		}
	}
}

// skipKey reads a key of a skipped object, refusing one it already holds.
func (d *decoder) skipKey(obj int) error {
	k, err := d.key()
	if err != nil {
		return err
	}
	return d.unique(obj, k)
}

// number validates a JSON number.
func (d *decoder) number() error {
	b, i := d.blob, d.off
	digits := func() bool {
		n := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > n
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return d.errorf("malformed number")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return d.errorf("malformed number")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return d.errorf("malformed number")
		}
	}
	d.off = i
	return nil
}

// literal consumes lit if it is next.
func (d *decoder) literal(lit string) bool {
	if end := d.off + len(lit); end <= len(d.blob) && string(d.blob[d.off:end]) == lit {
		d.off = end
		return true
	}
	return false
}

// text reads a string member: a string, or null as the empty string.
func (d *decoder) text() ([]byte, error) {
	if d.peek() == '"' {
		return d.str()
	}
	if d.null() {
		return nil, nil
	}
	return nil, d.mismatch("a string")
}

// key reads an object member's key and the ':' after it.
func (d *decoder) key() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.mismatch("a key")
	}
	k, err := d.str()
	if err != nil {
		return nil, err
	}
	if d.ws(); d.peek() != ':' {
		return nil, d.mismatch("':'")
	}
	d.off++
	d.ws()
	return k, nil
}

// str reads the string at d.off as encoding/json unquotes it. A string
// that is valid UTF-8 without escapes comes back as a slice of blob; any
// other, as d.buf, which the next string needing it overwrites.
func (d *decoder) str() ([]byte, error) {
	b := d.blob
	start := d.off + 1
	for i := start; i < len(b); {
		c := b[i]
		if ' ' <= c && c < utf8.RuneSelf && c != '"' && c != '\\' {
			i++
			continue
		}
		switch {
		case c == '"':
			d.off = i + 1
			return b[start:i], nil
		case c < utf8.RuneSelf:
			return d.unquote(start, i)
		default:
			r, n := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && n == 1 {
				return d.unquote(start, i)
			}
			i += n
		}
	}
	d.off = len(b)
	return nil, d.errorf("unterminated string")
}

// unquote finishes the string str began at start, from i, the first byte
// that does not stand for itself: escapes are decoded, a \u surrogate pair
// is one rune, a lone surrogate and each invalid UTF-8 byte become U+FFFD,
// and a control character is refused.
func (d *decoder) unquote(start, i int) ([]byte, error) {
	b := d.blob
	out := append(d.buf[:0], b[start:i]...)
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			d.off = i + 1
			d.buf = out
			return out, nil
		case c < ' ':
			d.off = i
			return nil, d.errorf("control character %#02x in string", c)
		case c == '\\':
			if i+1 == len(b) {
				i++
				continue
			}
			switch e := b[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(b[i+2:])
				if r < 0 {
					d.off = i
					return nil, d.errorf("malformed \\u escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					next := rune(-1)
					if i+1 < len(b) && b[i] == '\\' && b[i+1] == 'u' {
						next = hex4(b[i+2:])
					}
					if r = utf16.DecodeRune(r, next); r != utf8.RuneError {
						i += 6
					}
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				d.off = i
				return nil, d.errorf("invalid escape \\%c", e)
			}
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, n := utf8.DecodeRune(b[i:])
			out = utf8.AppendRune(out, r)
			i += n
		}
	}
	d.off = len(b)
	return nil, d.errorf("unterminated string")
}

// hex4 returns the value of the four hex digits b starts with, or -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// openContainer consumes the '[' or '{' at d.off and reports whether a
// member follows; an empty container is consumed whole. The shape's own
// containers nest five deep at most, far inside maxDepth.
func (d *decoder) openContainer() (bool, error) {
	closer := byte(']')
	if d.blob[d.off] == '{' {
		closer = '}'
	}
	d.off++
	d.ws()
	if d.peek() == closer {
		d.off++
		return false, nil
	}
	return true, nil
}

// next consumes the ',' before another member (true) or the closer of the
// container (false).
func (d *decoder) next(closer byte) (bool, error) {
	d.ws()
	switch d.peek() {
	case ',':
		d.off++
		d.ws()
		return true, nil
	case closer:
		d.off++
		return false, nil
	}
	return false, d.mismatch(fmt.Sprintf("',' or '%c'", closer))
}

func (d *decoder) null() bool { return d.literal("null") }

func (d *decoder) ws() {
	b, i := d.blob, d.off
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	d.off = i
}

// peek returns the byte at d.off, 0 at the end of the input.
func (d *decoder) peek() byte {
	if d.off < len(d.blob) {
		return d.blob[d.off]
	}
	return 0
}

func (d *decoder) mismatch(want string) error {
	if d.off >= len(d.blob) {
		return d.errorf("unexpected end of input, want %s", want)
	}
	return d.errorf("found %q, want %s", d.blob[d.off], want)
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("byte %d: %s", d.off, fmt.Sprintf(format, args...))
}
