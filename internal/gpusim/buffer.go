package gpusim

import "fmt"

// Buffer is a device-global memory allocation holding either float32 or
// int32 elements. Host code reads and writes the backing slices directly
// (that traffic is accounted by the queue layer in internal/cl); kernels go
// through the counted accessors on Item so every device-side access is
// charged to the cost model.
type Buffer struct {
	name string
	f    []float32
	i    []int32
}

// NewBufferF32 allocates a float32 buffer of n elements.
func (d *Device) NewBufferF32(name string, n int) *Buffer {
	if n < 0 {
		panic(fmt.Sprintf("gpusim: negative buffer size %d for %q", n, name))
	}
	return &Buffer{name: name, f: make([]float32, n)}
}

// NewBufferI32 allocates an int32 buffer of n elements.
func (d *Device) NewBufferI32(name string, n int) *Buffer {
	if n < 0 {
		panic(fmt.Sprintf("gpusim: negative buffer size %d for %q", n, name))
	}
	return &Buffer{name: name, i: make([]int32, n)}
}

// Name returns the buffer's debug name.
func (b *Buffer) Name() string { return b.name }

// Len returns the element count.
func (b *Buffer) Len() int {
	if b.f != nil {
		return len(b.f)
	}
	return len(b.i)
}

// IsFloat reports whether the buffer holds float32 elements.
func (b *Buffer) IsFloat() bool { return b.f != nil }

// HostF32 exposes the backing float32 slice for host-side initialisation
// and readback. It panics for int buffers.
func (b *Buffer) HostF32() []float32 {
	if b.f == nil {
		panic(fmt.Sprintf("gpusim: buffer %q is not float32", b.name))
	}
	return b.f
}

// HostI32 exposes the backing int32 slice. It panics for float buffers.
func (b *Buffer) HostI32() []int32 {
	if b.i == nil {
		panic(fmt.Sprintf("gpusim: buffer %q is not int32", b.name))
	}
	return b.i
}
