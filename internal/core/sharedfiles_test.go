package core_test

import (
	"bytes"
	"sort"
	"sync"
	"testing"

	"sanity/internal/asm"
	"sanity/internal/core"
	"sanity/internal/fixtures"
	"sanity/internal/nfs"
)

// overwriteSrc reads the file named by its first input and overwrites
// every byte of the array it got, then sends it.
const overwriteSrc = `
.program overwrite
.func main 0 3
    ncall io.recvblock 0
    ncall fs.read 1
    store 0
    iconst 0
    store 1
loop:
    load 1
    load 0
    alen
    if_icmpge send
    load 0
    load 1
    iconst 33
    astore
    iinc 1 1
    goto loop
send:
    load 0
    ncall io.send 1
    pop
    ret
.end`

// TestEnginesShareStableStorage runs engines concurrently on
// fixtures.ServerConfig's one shared file store, nfsd replays beside a
// guest that overwrites a file it read; run it under -race. The store
// must still equal a freshly built one.
func TestEnginesShareStableStorage(t *testing.T) {
	tr, err := fixtures.PlayTrace(24, 9, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	files := fixtures.ServerConfig(0).Files
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	writer := asm.MustAssemble("overwrite", overwriteSrc)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(seed uint64) {
			defer wg.Done()
			if _, err := core.ReplayTDR(nfs.ServerProgram(), tr.Log, fixtures.ServerConfig(seed)); err != nil {
				errs <- err
			}
		}(uint64(g))
		go func(name string) {
			defer wg.Done()
			x, _, err := core.Play(writer, []core.InputEvent{{Payload: []byte(name)}}, fixtures.ServerConfig(1))
			if err == nil && (len(x.Outputs) != 1 || bytes.Count(x.Outputs[0].Payload, []byte("!")) != len(files[name])) {
				t.Errorf("overwrite of %s sent %d outputs", name, len(x.Outputs))
			}
			if err != nil {
				errs <- err
			}
		}(names[g%len(names)])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	fresh := nfs.FileStore()
	for name, content := range files {
		if !bytes.Equal(content, fresh[name]) {
			t.Fatalf("file %s changed under the engines", name)
		}
	}
}
