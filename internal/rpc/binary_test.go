package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"net/http"
	"sync"
	"testing"

	"accelcloud/internal/tasks"
	"accelcloud/internal/wire"
)

// TestBinaryClientSharedAcrossGoroutines shares one bin:// Client
// between many goroutines, each call carrying its own payload of its
// own size. Every call must get back its own result: pooled request
// buffers, reused reply channels and the server's worker scratch never
// mix two calls up (run with -race).
func TestBinaryClientSharedAcrossGoroutines(t *testing.T) {
	srv := &wire.Server{H: wire.Handlers{
		Offload: func(ctx context.Context, req OffloadRequest) (OffloadResponse, int) {
			data := make([]byte, len(req.State.Data))
			for i, b := range req.State.Data {
				data[len(data)-1-i] = b
			}
			return OffloadResponse{
				Result: tasks.Result{Task: req.State.Task, Data: data, Ops: int64(req.UserID)},
				Group:  req.Group,
			}, http.StatusOK
		},
	}}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(lis) }()
	defer srv.Close()
	c := NewClient(BinaryScheme + lis.Addr().String())

	const goroutines, calls = 16, 64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				id := g*calls + i
				data := make([]byte, 8+id%300)
				binary.LittleEndian.PutUint64(data, uint64(id))
				for j := 8; j < len(data); j++ {
					data[j] = byte(id + j)
				}
				task := fmt.Sprintf("t-%d", id)
				resp, err := c.Offload(context.Background(), OffloadRequest{
					UserID: id, Group: g, BatteryLevel: 0.5, State: tasks.State{Task: task, Data: data},
				})
				if err != nil {
					t.Errorf("call %d: %v", id, err)
					return
				}
				want := make([]byte, len(data))
				for j, b := range data {
					want[len(want)-1-j] = b
				}
				if resp.Result.Task != task || resp.Result.Ops != int64(id) || resp.Group != g ||
					!bytes.Equal(resp.Result.Data, want) {
					t.Errorf("call %d answered with task %q ops %d group %d", id, resp.Result.Task, resp.Result.Ops, resp.Group)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
