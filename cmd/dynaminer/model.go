package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"dynaminer"
	"dynaminer/internal/ml"
)

// runModel dispatches the model artifact tooling: converting a saved model
// to the DMFB blob and inspecting a saved model.
func runModel(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: dynaminer model <convert|info> [flags]")
	}
	switch args[0] {
	case "convert":
		return runModelConvert(args[1:])
	case "info":
		return runModelInfo(args[1:])
	default:
		return fmt.Errorf("unknown model subcommand %q", args[0])
	}
}

// runModelConvert rewrites a model as a DMFB blob, the one format written.
// Its input is either a blob or a v1 JSON model from an earlier version;
// the import preserves scores bit-for-bit, so converting is always
// verdict-safe, and a blob converts to itself byte for byte.
func runModelConvert(args []string) error {
	fs := flag.NewFlagSet("model convert", flag.ContinueOnError)
	var (
		in  = fs.String("in", "", "input model path (DMFB blob or v1 JSON; format is sniffed)")
		out = fs.String("out", "", "output DMFB blob path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("model convert: -in and -out are required")
	}
	clf, err := dynaminer.LoadFile(*in)
	if err != nil {
		return err
	}
	if err := clf.SaveBlobFile(*out); err != nil {
		return err
	}
	fi, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("wrote blob model to %s (%d bytes)\n", *out, fi.Size())
	return nil
}

// runModelInfo prints a saved model's format, shape, and configuration.
func runModelInfo(args []string) error {
	fs := flag.NewFlagSet("model info", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: dynaminer model info <model-path>")
	}
	path := fs.Arg(0)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	clf, err := dynaminer.Load(bytes.NewReader(data))
	if err != nil {
		return err
	}
	format := "json (v1, import-only)"
	if ml.IsFlatBlob(data) {
		format = "blob"
	}
	info := clf.Info()
	fmt.Printf("path:       %s\n", path)
	fmt.Printf("format:     %s\n", format)
	fmt.Printf("trees:      %d\n", info.Trees)
	fmt.Printf("nodes:      %d\n", info.Nodes)
	fmt.Printf("features:   %d\n", info.Features)
	fmt.Printf("config:     trees=%d max-features=%d min-samples-leaf=%d max-depth=%d seed=%d\n",
		info.Config.NumTrees, info.Config.MaxFeatures, info.Config.MinSamplesLeaf,
		info.Config.MaxDepth, info.Config.Seed)
	return nil
}
