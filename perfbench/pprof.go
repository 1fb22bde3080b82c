package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// profile is the part of a runtime/pprof profile the layer attribution
// reads: the sample value names and, per sample, its values and its stack of
// function names from the leaf outwards (inlined frames included, innermost
// first).
type profile struct {
	sampleTypes []string
	samples     []profSample
}

type profSample struct {
	stack  []string
	values []int64
}

// valueIndex returns the position of the named sample value ("cpu",
// "alloc_space", ...), or -1.
func (p *profile) valueIndex(name string) int {
	for i, t := range p.sampleTypes {
		if t == name {
			return i
		}
	}
	return -1
}

// parseProfile decodes a gzipped profile.proto as runtime/pprof writes it.
// It is a minimal protobuf reader for the five messages it needs, so the
// benchmark stays standard-library only.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	var (
		strs        []string
		typeIdx     []int64 // string index of each sample type's name
		rawSamples  []rawSample
		locFuncs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNameIdx = map[uint64]int64{}    // function id -> string index of its name
	)
	err = walkFields(raw, func(tag int, wire int, v uint64, b []byte) error {
		switch tag {
		case 1: // sample_type: ValueType{type=1, unit=2}
			var t int64
			err := walkFields(b, func(tag, wire int, v uint64, _ []byte) error {
				if tag == 1 {
					t = int64(v)
				}
				return nil
			})
			typeIdx = append(typeIdx, t)
			return err
		case 2: // sample: Sample{location_id=1, value=2}
			var s rawSample
			err := walkFields(b, func(tag, wire int, v uint64, b []byte) error {
				switch tag {
				case 1:
					return appendUints(&s.locs, wire, v, b)
				case 2:
					var vals []uint64
					if err := appendUints(&vals, wire, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			rawSamples = append(rawSamples, s)
			return err
		case 4: // location: Location{id=1, line=4 (Line{function_id=1})}
			var id uint64
			var funcs []uint64
			err := walkFields(b, func(tag, wire int, v uint64, b []byte) error {
				switch tag {
				case 1:
					id = v
				case 4:
					return walkFields(b, func(tag, wire int, v uint64, _ []byte) error {
						if tag == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // function: Function{id=1, name=2}
			var id uint64
			var name int64
			err := walkFields(b, func(tag, wire int, v uint64, _ []byte) error {
				switch tag {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNameIdx[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, t := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(t))
	}
	for _, rs := range rawSamples {
		s := profSample{values: rs.values}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				s.stack = append(s.stack, str(funcNameIdx[fn]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

type rawSample struct {
	locs   []uint64
	values []int64
}

// appendUints appends a repeated integer field that may be packed (wire type
// 2) or not (wire type 0): runtime/pprof packs only lists longer than two.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// walkFields calls fn for every field of one protobuf message: v carries a
// varint or fixed-width value, b a length-delimited payload.
func walkFields(msg []byte, fn func(tag, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		tag, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length-delimited field")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(tag, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
