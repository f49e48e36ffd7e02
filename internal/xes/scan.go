package xes

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"gecco/internal/eventlog"
)

// scanner reads one XES document in a single pass over its bytes and feeds
// an eventlog.Builder as it goes. It accepts exactly the documents the
// encoding/xml struct decoder accepted (the oracle in oracle_test.go), with
// the same result; the package documentation lists the subset.
//
// No string it hands to the Builder aliases the source: every string is
// copied out of the byte slice, and repeated ones (attribute keys, classes,
// categorical values) are copied once and shared through strs.
type scanner struct {
	src []byte
	pos int
	b   *eventlog.Builder

	strs map[string]string

	// keyBuf, valBuf and tmpBuf receive attribute values that must be
	// decoded (references, carriage returns); other values are returned as
	// views into src.
	keyBuf, valBuf, tmpBuf []byte

	// attrs holds the current event's attributes until its end tag: the
	// class (concept:name) may come last, and AddEvent needs it first.
	attrs []pendingAttr
	// open is the stack of element names skip is inside.
	open [][]byte
}

type pendingAttr struct {
	key string
	v   eventlog.Value
}

// tag is a start or end tag, or the end of input.
type tag struct {
	eof   bool
	end   bool
	empty bool   // a self-closing start tag
	name  []byte // the qualified name, a view into src
	// key and value are the decoded key and value attributes of a start
	// tag: an attribute element carries its XES key and value in them.
	key, value []byte
}

// scan parses src into an Index.
func scan(src []byte) (*eventlog.Index, error) {
	s := &scanner{src: src, b: eventlog.NewBuilder(), strs: make(map[string]string)}
	if err := s.document(); err != nil {
		return nil, err
	}
	return s.b.Build(), nil
}

// readAll reads r to the end, sizing the buffer up front when r reports its
// length (strings.Reader and bytes.Reader do).
func readAll(r io.Reader) ([]byte, error) {
	l, ok := r.(interface{ Len() int })
	if !ok {
		return io.ReadAll(r)
	}
	buf := bytes.NewBuffer(make([]byte, 0, l.Len()+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

func (s *scanner) fail(msg string) error {
	return fmt.Errorf("xes: syntax error at byte %d: %s", s.pos, msg)
}

func (s *scanner) eof() error { return s.fail("unexpected EOF") }

// document reads the prolog, the root <log> element and everything in it.
// Whatever follows the root's end tag is not read.
func (s *scanner) document() error {
	root, err := s.next()
	switch {
	case err != nil:
		return err
	case root.eof:
		return s.fail("no root element")
	case root.end:
		return s.fail("unexpected end element </" + string(root.name) + ">")
	case string(localName(root.name)) != "log":
		return fmt.Errorf("xes: root element is <%s>, want <log>", root.name)
	case root.empty:
		return nil
	}
	for traces := 0; ; {
		t, ok, err := s.child(root.name)
		if !ok || err != nil {
			return err
		}
		if string(localName(t.name)) == "trace" {
			if err := s.trace(t, traces); err != nil {
				return err
			}
			traces++
			continue
		}
		// Any other child is a log-level attribute. Header elements
		// (extension, global, classifier) carry no key and are skipped.
		switch {
		case len(t.key) == 0:
		case string(t.key) == conceptName:
			s.b.SetName(string(t.value))
		default:
			v, err := s.value(t)
			if err != nil {
				return fmt.Errorf("xes: log attr %q: %w", t.key, err)
			}
			s.b.SetLogAttr(s.intern(t.key), v)
		}
		if err := s.skip(t); err != nil {
			return err
		}
	}
}

// trace reads the i-th trace, whose start tag is open. A trace without a
// concept:name gets the ID t<i>.
func (s *scanner) trace(open tag, i int) error {
	s.b.StartTrace("")
	id, named := "", false
	for events := 0; !open.empty; {
		t, ok, err := s.child(open.name)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if string(localName(t.name)) == "event" {
			if err := s.event(t, i, events); err != nil {
				return err
			}
			events++
			continue
		}
		switch {
		case len(t.key) == 0:
		case string(t.key) == conceptName:
			id, named = string(t.value), true
		default:
			v, err := s.value(t)
			if err != nil {
				return fmt.Errorf("xes: trace %d attr %q: %w", i, t.key, err)
			}
			s.b.SetTraceAttr(s.intern(t.key), v)
		}
		if err := s.skip(t); err != nil {
			return err
		}
	}
	if !named {
		id = "t" + strconv.Itoa(i)
	}
	s.b.SetTraceID(id)
	return nil
}

// event reads event e of trace i, whose start tag is open. Every child
// element is an attribute; the last concept:name is the class.
func (s *scanner) event(open tag, i, e int) error {
	s.attrs = s.attrs[:0]
	class := ""
	for !open.empty {
		t, ok, err := s.child(open.name)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		v, err := s.value(t)
		if err != nil {
			return fmt.Errorf("xes: trace %d event %d attr %q: %w", i, e, t.key, err)
		}
		switch string(t.key) {
		case conceptName:
			class = v.Str
		case timeTimestamp:
			s.pend(eventlog.AttrTimestamp, v)
		case lifecycleTransition:
			s.pend(eventlog.AttrLifecycle, v)
		default:
			s.pend(s.intern(t.key), v)
		}
		if err := s.skip(t); err != nil {
			return err
		}
	}
	if class == "" {
		return fmt.Errorf("xes: trace %d event %d: missing %s", i, e, conceptName)
	}
	s.b.AddEvent(class)
	for _, a := range s.attrs {
		s.b.SetEventAttr(a.key, a.v)
	}
	return nil
}

// pend holds an attribute for the current event. A repeated key replaces
// the earlier value, as a store into the event's attribute map would.
func (s *scanner) pend(key string, v eventlog.Value) {
	for i := range s.attrs {
		if s.attrs[i].key == key {
			s.attrs[i].v = v
			return
		}
	}
	s.attrs = append(s.attrs, pendingAttr{key, v})
}

// value types an attribute element's value by the element's local name,
// the XES attribute kind.
func (s *scanner) value(t tag) (eventlog.Value, error) {
	switch kind := localName(t.name); string(kind) {
	case "int", "float", "date", "boolean":
		return decodeValue(string(kind), string(t.value))
	}
	return eventlog.String(s.intern(t.value)), nil
}

// intern returns b as a string, copying it only the first time it is seen.
func (s *scanner) intern(b []byte) string {
	if v, ok := s.strs[string(b)]; ok {
		return v
	}
	v := string(b)
	s.strs[v] = v
	return v
}

// child advances to the next child element of the open element parent. It
// returns false, and no error, once parent's end tag has been read.
func (s *scanner) child(parent []byte) (tag, bool, error) {
	t, err := s.next()
	switch {
	case err != nil:
		return t, false, err
	case t.eof:
		return t, false, s.eof()
	case t.end:
		if !bytes.Equal(t.name, parent) {
			return t, false, s.fail("element <" + string(parent) + "> closed by </" + string(t.name) + ">")
		}
		return t, false, nil
	}
	return t, true, nil
}

// skip consumes the content and end tag of the element whose start tag is
// t, checking that nested elements are well formed.
func (s *scanner) skip(t tag) error {
	if t.empty {
		return nil
	}
	s.open = append(s.open[:0], t.name)
	for len(s.open) > 0 {
		c, err := s.next()
		switch {
		case err != nil:
			return err
		case c.eof:
			return s.eof()
		case c.end:
			top := s.open[len(s.open)-1]
			if !bytes.Equal(c.name, top) {
				return s.fail("element <" + string(top) + "> closed by </" + string(c.name) + ">")
			}
			s.open = s.open[:len(s.open)-1]
		case !c.empty:
			s.open = append(s.open, c.name)
		}
	}
	return nil
}

// next reads up to and including the next start or end tag, checking and
// skipping character data, CDATA sections, comments, processing
// instructions and directives on the way.
//
//gecco:hotpath
func (s *scanner) next() (tag, error) {
	for {
		if err := s.text(); err != nil {
			return tag{}, err
		}
		if s.pos == len(s.src) {
			return tag{eof: true}, nil
		}
		s.pos++ // '<'
		if s.pos == len(s.src) {
			return tag{}, s.eof()
		}
		var err error
		switch s.src[s.pos] {
		case '/':
			s.pos++
			name, err := s.qname("expected element name after </")
			if err != nil {
				return tag{}, err
			}
			s.space()
			if s.pos == len(s.src) {
				return tag{}, s.eof()
			}
			if s.src[s.pos] != '>' {
				return tag{}, s.fail("invalid characters between </" + string(name) + " and >")
			}
			s.pos++
			return tag{end: true, name: name}, nil
		case '?':
			s.pos++
			err = s.procInst()
		case '!':
			s.pos++
			err = s.bang()
		default:
			return s.startTag()
		}
		if err != nil {
			return tag{}, err
		}
	}
}

// text consumes character data up to the next '<' or the end of input. Its
// content is discarded, but it must be what encoding/xml accepts: XML
// characters in valid UTF-8, known references, and no "]]>".
//
//gecco:hotpath
func (s *scanner) text() error {
	src := s.src
	run := s.pos // start of the bytes "]]>" is looked for in
	for i := s.pos; i < len(src); {
		switch c := src[i]; {
		case c == '<':
			s.pos = i
			return nil
		case c == '&':
			_, n, err := s.ref(i)
			if err != nil {
				return err
			}
			i, run = n, n
		case c == '>':
			if i-run >= 2 && src[i-1] == ']' && src[i-2] == ']' {
				s.pos = i
				return s.fail("unescaped ]]> not in CDATA section")
			}
			i++
		case c >= utf8.RuneSelf:
			n, err := s.char(i)
			if err != nil {
				return err
			}
			i += n
		case c < 0x20 && c != '\t' && c != '\n' && c != '\r':
			s.pos = i
			return s.fail("illegal character code " + strconv.QuoteRune(rune(c)))
		default:
			i++
		}
	}
	s.pos = len(src)
	return nil
}

// char checks the multi-byte character at src[i] and returns its length.
func (s *scanner) char(i int) (int, error) {
	r, n := utf8.DecodeRune(s.src[i:])
	if r == utf8.RuneError && n == 1 {
		s.pos = i
		return 0, s.fail("invalid UTF-8")
	}
	if !isXMLChar(r) {
		s.pos = i
		return 0, s.fail("illegal character code " + strconv.QuoteRune(r))
	}
	return n, nil
}

// chars checks that src[from:to] holds only XML characters in valid UTF-8.
func (s *scanner) chars(from, to int) error {
	for i := from; i < to; {
		c := s.src[i]
		switch {
		case c >= utf8.RuneSelf:
			n, err := s.char(i)
			if err != nil {
				return err
			}
			i += n
			continue
		case c < 0x20 && c != '\t' && c != '\n' && c != '\r':
			s.pos = i
			return s.fail("illegal character code " + strconv.QuoteRune(rune(c)))
		}
		i++
	}
	return nil
}

// ref decodes the entity or character reference at src[i] == '&' and
// returns the character it stands for and the index just past its ';'.
// Only the five predefined entities exist: no document type is read.
func (s *scanner) ref(i int) (rune, int, error) {
	src := s.src
	j := i + 1
	if j < len(src) && src[j] == '#' {
		j++
		base := rune(10)
		if j < len(src) && src[j] == 'x' {
			base = 16
			j++
		}
		r, digits := rune(0), 0
		for ; j < len(src); j++ {
			d := digit(src[j], base)
			if d < 0 {
				break
			}
			if r <= utf8.MaxRune {
				r = r*base + d
			}
			digits++
		}
		if digits > 0 && j < len(src) && src[j] == ';' && r <= utf8.MaxRune {
			if 0xD800 <= r && r <= 0xDFFF {
				r = utf8.RuneError // what string(rune(r)) makes of a surrogate
			}
			if !isXMLChar(r) {
				s.pos = i
				return 0, 0, s.fail("illegal character code " + strconv.QuoteRune(r))
			}
			return r, j + 1, nil
		}
	} else {
		for j < len(src) && (isNameByte(src[j]) || src[j] >= utf8.RuneSelf) {
			j++
		}
		if j < len(src) && src[j] == ';' {
			if r, ok := entities[string(src[i+1:j])]; ok {
				return r, j + 1, nil
			}
		}
	}
	s.pos = i
	if j >= len(src) {
		return 0, 0, s.eof()
	}
	return 0, 0, s.fail("invalid character entity " + string(src[i:j+1]))
}

var entities = map[string]rune{"lt": '<', "gt": '>', "amp": '&', "apos": '\'', "quot": '"'}

func digit(c byte, base rune) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case base == 16 && 'a' <= c && c <= 'f':
		return rune(c-'a') + 10
	case base == 16 && 'A' <= c && c <= 'F':
		return rune(c-'A') + 10
	}
	return -1
}

// startTag reads a start tag whose '<' has been consumed, keeping its key
// and value attributes. Attribute names match on their local part.
//
//gecco:hotpath
func (s *scanner) startTag() (tag, error) {
	name, err := s.qname("expected element name after <")
	if err != nil {
		return tag{}, err
	}
	t := tag{name: name}
	for {
		s.space()
		if s.pos == len(s.src) {
			return tag{}, s.eof()
		}
		switch s.src[s.pos] {
		case '/':
			s.pos++
			if s.pos == len(s.src) {
				return tag{}, s.eof()
			}
			if s.src[s.pos] != '>' {
				return tag{}, s.fail("expected /> in element")
			}
			s.pos++
			t.empty = true
			return t, nil
		case '>':
			s.pos++
			return t, nil
		}
		attr, err := s.qname("expected attribute name in element")
		if err != nil {
			return tag{}, err
		}
		s.space()
		if s.pos == len(s.src) {
			return tag{}, s.eof()
		}
		if s.src[s.pos] != '=' {
			return tag{}, s.fail("attribute name without = in element")
		}
		s.pos++
		s.space()
		if s.pos == len(s.src) {
			return tag{}, s.eof()
		}
		q := s.src[s.pos]
		if q != '"' && q != '\'' {
			return tag{}, s.fail("unquoted or missing attribute value in element")
		}
		s.pos++
		switch string(localName(attr)) {
		case "key":
			t.key, err = s.attrValue(q, &s.keyBuf)
		case "value":
			t.value, err = s.attrValue(q, &s.valBuf)
		default:
			_, err = s.attrValue(q, &s.tmpBuf)
		}
		if err != nil {
			return tag{}, err
		}
	}
}

// attrValue reads an attribute value up to the closing quote q and returns
// it decoded: a view into src when it holds no reference and no carriage
// return, else a copy decoded into *dst. As in encoding/xml, "\r\n" and a
// lone "\r" read as "\n" and no other whitespace is normalised.
//
//gecco:hotpath
func (s *scanner) attrValue(q byte, dst *[]byte) ([]byte, error) {
	src, start := s.src, s.pos
	i := start
	for ; i < len(src); i++ {
		c := src[i]
		if c == q {
			s.pos = i + 1
			return src[start:i], nil
		}
		if c == '&' || c == '<' || c == '\r' || c >= utf8.RuneSelf || c < 0x20 && c != '\t' && c != '\n' {
			break
		}
	}
	buf := append((*dst)[:0], src[start:i]...)
	cr := false // the previous byte was a literal '\r'
	for i < len(src) {
		c := src[i]
		switch {
		case c == q:
			s.pos = i + 1
			*dst = buf
			return buf, nil
		case c == '<':
			s.pos = i
			return nil, s.fail("unescaped < inside quoted string")
		case c == '&':
			r, n, err := s.ref(i)
			if err != nil {
				return nil, err
			}
			buf = utf8.AppendRune(buf, r)
			i, cr = n, false
			continue
		case c == '\r':
			buf = append(buf, '\n')
			i, cr = i+1, true
			continue
		case c == '\n' && cr:
			// The '\r' already stood for the line break.
		case c >= utf8.RuneSelf:
			n, err := s.char(i)
			if err != nil {
				return nil, err
			}
			buf = append(buf, src[i:i+n]...)
			i, cr = i+n, false
			continue
		case c < 0x20 && c != '\t' && c != '\n':
			s.pos = i
			return nil, s.fail("illegal character code " + strconv.QuoteRune(rune(c)))
		default:
			buf = append(buf, c)
		}
		i, cr = i+1, false
	}
	s.pos = i
	return nil, s.eof()
}

// name reads an XML name and returns it as a view into src. missing is the
// error when no name starts at the current position.
func (s *scanner) name(missing string) ([]byte, error) {
	src, start := s.src, s.pos
	i := start
	for i < len(src) && (isNameByte(src[i]) || src[i] >= utf8.RuneSelf) {
		i++
	}
	switch {
	case i == len(src):
		s.pos = i
		return nil, s.eof()
	case i == start:
		return nil, s.fail(missing)
	}
	n := src[start:i]
	if !isName(n) {
		return nil, s.fail("invalid XML name: " + string(n))
	}
	s.pos = i
	return n, nil
}

// qname reads a name with at most one colon: an element or attribute name,
// optionally prefixed.
func (s *scanner) qname(missing string) ([]byte, error) {
	n, err := s.name(missing)
	if err == nil && bytes.Count(n, []byte{':'}) > 1 {
		return nil, s.fail(missing)
	}
	return n, err
}

// localName returns the part of a qualified name after its prefix. Like
// encoding/xml, a name with an empty prefix or an empty local part is all
// local.
func localName(n []byte) []byte {
	if i := bytes.IndexByte(n, ':'); i > 0 && i < len(n)-1 {
		return n[i+1:]
	}
	return n
}

func (s *scanner) space() {
	for s.pos < len(s.src) {
		switch s.src[s.pos] {
		case ' ', '\t', '\r', '\n':
			s.pos++
		default:
			return
		}
	}
}

// procInst skips a processing instruction whose "<?" has been consumed. An
// XML declaration must declare version 1.0 (or none) and UTF-8 (or none).
func (s *scanner) procInst() error {
	target, err := s.name("expected target name after <?")
	if err != nil {
		return err
	}
	s.space()
	end := bytes.Index(s.src[s.pos:], []byte("?>"))
	if end < 0 {
		s.pos = len(s.src)
		return s.eof()
	}
	body := string(s.src[s.pos : s.pos+end])
	s.pos += end + 2
	if string(target) != "xml" {
		return nil
	}
	if v := procInstParam("version", body); v != "" && v != "1.0" {
		return fmt.Errorf("xes: unsupported XML version %q; only version 1.0 is supported", v)
	}
	if enc := procInstParam("encoding", body); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return fmt.Errorf("xes: unsupported encoding %q; only UTF-8 is supported", enc)
	}
	return nil
}

// procInstParam returns the quoted value of param="..." or param='...' in
// an XML declaration, or "" when there is none. It finds the value
// encoding/xml finds, also in malformed declarations.
func procInstParam(param, s string) string {
	param += "="
	i := 0
	var q byte
	for i < len(s) {
		k := strings.Index(s[i:], param)
		if k < 0 || i+k+len(param) >= len(s) {
			return ""
		}
		i += k + len(param) + 1
		if c := s[i-1]; c == '\'' || c == '"' {
			q = c
			break
		}
	}
	if q == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], q)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// bang skips a comment, CDATA section or directive whose "<!" has been
// consumed.
func (s *scanner) bang() error {
	src := s.src
	if s.pos == len(src) {
		return s.eof()
	}
	c := src[s.pos]
	s.pos++
	switch c {
	case '-':
		if s.pos == len(src) {
			return s.eof()
		}
		if src[s.pos] != '-' {
			return s.fail("invalid sequence <!- not part of <!--")
		}
		s.pos++
		end := bytes.Index(src[s.pos:], []byte("--"))
		if end < 0 || s.pos+end+2 == len(src) {
			s.pos = len(src)
			return s.eof()
		}
		s.pos += end + 2
		if src[s.pos] != '>' {
			return s.fail(`invalid sequence "--" not allowed in comments`)
		}
		s.pos++
		return nil
	case '[':
		const open = "CDATA["
		for i := 0; i < len(open); i++ {
			if s.pos == len(src) {
				return s.eof()
			}
			if src[s.pos] != open[i] {
				return s.fail("invalid <![ sequence")
			}
			s.pos++
		}
		end := bytes.Index(src[s.pos:], []byte("]]>"))
		if end < 0 {
			s.pos = len(src)
			return s.fail("unexpected EOF in CDATA section")
		}
		if err := s.chars(s.pos, s.pos+end); err != nil {
			return err
		}
		s.pos += end + 3
		return nil
	}
	return s.directive()
}

// directive skips a directive such as <!DOCTYPE ...> the way encoding/xml
// does: the byte after "<!" has been consumed and does not count, quoted
// text is opaque, nested <...> pairs balance, and comments are skipped.
func (s *scanner) directive() error {
	src := s.src
	var quote byte
	depth := 0
	for {
		if s.pos == len(src) {
			return s.eof()
		}
		c := src[s.pos]
		s.pos++
		if quote == 0 && c == '>' && depth == 0 {
			return nil
		}
	handle:
		switch {
		case c == quote:
			quote = 0
		case quote != 0:
		case c == '\'' || c == '"':
			quote = c
		case c == '>':
			depth--
		case c == '<':
			// "<!--" opens a comment; any other '<' nests, and the byte
			// that broke the match is handled as if read on its own.
			for _, want := range []byte("!--") {
				if s.pos == len(src) {
					return s.eof()
				}
				c = src[s.pos]
				s.pos++
				if c != want {
					depth++
					goto handle
				}
			}
			end := bytes.Index(src[s.pos:], []byte("-->"))
			if end < 0 {
				s.pos = len(src)
				return s.eof()
			}
			s.pos += end + 3
		}
	}
}

func isNameByte(c byte) bool {
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
		c == '_' || c == ':' || c == '.' || c == '-'
}

// isName reports whether n, a run of name bytes, is an XML name. An ASCII
// name only needs a first byte that may start a name.
func isName(n []byte) bool {
	if c := n[0]; '0' <= c && c <= '9' || c == '.' || c == '-' {
		return false
	}
	for _, c := range n {
		if c >= utf8.RuneSelf {
			return isNonASCIIName(n)
		}
	}
	return true
}

// isNonASCIIName checks a name against the character classes of XML 1.0
// Appendix B. encoding/xml keeps those tables unexported; the target check
// of its encoder's processing instructions is the exported way to reach
// them, and non-ASCII names are rare enough for its cost not to matter.
func isNonASCIIName(n []byte) bool {
	return xml.NewEncoder(io.Discard).EncodeToken(xml.ProcInst{Target: string(n)}) == nil
}

// isXMLChar reports whether r is in the Char production of XML 1.0.
func isXMLChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}
