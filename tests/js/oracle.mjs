// Reference-engine oracle backed by Node's built-in Wasm engine (V8).
//
// Modes:
//   node oracle.mjs invoke <module.wasm> name:sig [name:sig ...]
//     -> one JSON line: {name: {kind: "value", type, bits} | {kind: "trap", cls}}
//     A fresh instance is created per export so traps cannot leak state; a
//     trap while instantiating (a data or element segment out of bounds)
//     is that export's outcome.
//   node oracle.mjs validate <a.wasm> <b.wasm> ...
//     -> one JSON line: {basename: "accept" | "reject"}
import fs from "fs";
import path from "path";

function trapClass(e) {
  if (e instanceof RangeError) return 7; // Maximum call stack size exceeded
  const m = String(e.message || "");
  if (m.includes("memory access out of bounds") || m.includes("data segment")) return 1;
  if (m.includes("divide by zero") || m.includes("remainder by zero")) return 2;
  if (m.includes("unrepresentable")) return 3; // int div overflow + float-to-int range
  if (m.includes("unreachable")) return 4;
  if (m.includes("null function") || m.includes("signature mismatch")) return 5;
  if (m.includes("table index is out of bounds") || m.includes("element segment")) return 6;
  if (m.includes("call stack")) return 7;
  return 0;
}

function encode(sig, v) {
  const dv = new DataView(new ArrayBuffer(8));
  switch (sig) {
    case "i": {
      dv.setUint32(0, v >>> 0, true);
      return { type: "i32", bits: dv.getUint32(0, true).toString(16).padStart(8, "0") };
    }
    case "I": {
      const u = BigInt.asUintN(64, v);
      return { type: "i64", bits: u.toString(16).padStart(16, "0") };
    }
    case "f": {
      dv.setFloat32(0, Math.fround(v), true);
      return { type: "f32", bits: dv.getUint32(0, true).toString(16).padStart(8, "0") };
    }
    case "F": {
      dv.setFloat64(0, v, true);
      return { type: "f64", bits: dv.getBigUint64(0, true).toString(16).padStart(16, "0") };
    }
    default:
      return { type: "void", bits: "" };
  }
}

const mode = process.argv[2];

if (mode === "invoke") {
  const bytes = fs.readFileSync(process.argv[3]);
  const mod = new WebAssembly.Module(bytes);
  const out = {};
  for (const spec of process.argv.slice(4)) {
    const i = spec.lastIndexOf(":");
    const name = spec.slice(0, i);
    const sig = spec.slice(i + 1);
    try {
      const inst = new WebAssembly.Instance(mod, {});
      const v = inst.exports[name]();
      out[name] = { kind: "value", ...encode(sig, v) };
    } catch (e) {
      out[name] = { kind: "trap", cls: trapClass(e), msg: String(e.message || "") };
    }
  }
  process.stdout.write(JSON.stringify(out) + "\n");
} else if (mode === "validate") {
  const out = {};
  for (const p of process.argv.slice(3)) {
    try {
      new WebAssembly.Module(fs.readFileSync(p));
      out[path.basename(p)] = "accept";
    } catch (e) {
      out[path.basename(p)] = "reject";
    }
  }
  process.stdout.write(JSON.stringify(out) + "\n");
} else {
  console.error("usage: oracle.mjs invoke <wasm> name:sig... | validate <wasm>...");
  process.exit(2);
}
